package kafkarel_test

// The census behind the reachability gate (reach_test.go), stdlib only: it
// parses a module's non-test files as the default build context selects
// them, type-checks them through its own importer, reports what is unreached.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// reachPkg is one type-checked package of the module under census.
type reachPkg struct {
	rel   string // directory relative to the module root, "." for the root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type reachFinding struct{ key, kind, pos string } // one objection

type reachCensus struct {
	module  string
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*reachPkg // by import path
	errs    []error              // type-checking errors
	roots   []string             // directories whose every declaration is a root
	options map[string]int       // exported fields per config struct
}

// Import type-checks a module package once; the rest is the standard library.
func (c *reachCensus) Import(path string) (*types.Package, error) {
	p, ok := c.pkgs[path]
	if !ok {
		return c.std.Import(path)
	}
	if p.types == nil {
		p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: c, Error: func(err error) { c.errs = append(c.errs, err) }}
		p.types, _ = conf.Check(path, c.fset, p.files, p.info)
	}
	return p.types, nil
}

// reachGate parses every non-test file under dir that the default build
// context selects, plus the in-package tests of rootDirs, type-checks the
// packages, and returns the findings no allow entry covers and the allow
// entries that cover none.
func reachGate(dir string, allow map[string]string, rootDirs ...string) (c *reachCensus, findings []reachFinding, stale []string, err error) {
	mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, nil, nil, err
	}
	c = &reachCensus{fset: token.NewFileSet(), pkgs: map[string]*reachPkg{}, roots: rootDirs, options: map[string]int{}}
	c.module, c.std = strings.Fields(strings.TrimPrefix(string(mod), "module"))[0], importer.ForCompiler(c.fset, "source", nil)
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		_, nested := os.Stat(filepath.Join(path, "go.mod")) // another module's tree, as `./...` sees it
		if path != dir && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || nested == nil) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(dir, path)
		p := &reachPkg{rel: filepath.ToSlash(rel)}
		names, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, name := range names {
			if ok, _ := build.Default.MatchFile(path, filepath.Base(name)); !ok || strings.HasSuffix(name, "_test.go") && !slices.Contains(c.roots, p.rel) {
				continue
			}
			f, err := parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if !strings.HasSuffix(f.Name.Name, "_test") {
				p.files = append(p.files, f)
			}
		}
		if len(p.files) > 0 {
			c.pkgs[strings.TrimSuffix(c.module+"/"+p.rel, "/.")] = p
		}
		return nil
	})
	for path := range c.pkgs {
		c.Import(path)
	}
	if err != nil || len(c.errs) > 0 {
		return nil, nil, nil, fmt.Errorf("census of %s: %v, %v", dir, err, c.errs)
	}
	used := map[string]bool{}
	for _, f := range append(c.declarations(), c.fields()...) {
		covered := false
		for key := range allow { // every key that covers f, so that stale does not depend on map order
			if f.key == key || strings.HasPrefix(f.key, key+".") {
				used[key], covered = true, true
			}
		}
		if !covered {
			findings = append(findings, f)
		}
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].key < findings[j].key })
	for key := range allow {
		if !used[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return c, findings, stale, nil
}

// local returns obj's generic origin if the module declares it, else nil.
func (c *reachCensus) local(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj == nil || obj.Pkg() == nil || c.pkgs[obj.Pkg().Path()] == nil {
		return nil
	}
	return obj
}

// finding names a declaration of p: "internal/des.Simulator.Cancel".
func (c *reachCensus) finding(p *reachPkg, name, kind string, pos token.Pos) reachFinding {
	dir := p.rel
	if dir == "." {
		dir = c.module
	}
	return reachFinding{dir + "." + name, kind, c.fset.Position(pos).String()}
}

// declarations walks Info.Uses from the roots — every main, every init,
// every declaration under c.roots — and reports (a): funcs, methods and
// types under internal/ or in the root package that the walk never
// reaches. A method is also reached when its type is and the type
// satisfies a named interface, the module's or a dependency's, that names it.
func (c *reachCensus) declarations() (out []reachFinding) {
	var (
		edges   = map[types.Object][]types.Object{}
		methods = map[types.Object][]types.Object{} // by receiver type name
		judged  = map[types.Object]reachFinding{}   // what to say if obj stays unreached
		ifaces  = map[string][]*types.Interface{}   // named interfaces by method name
		reached = map[types.Object]bool{}
		order   []types.Object
		work    []types.Object
		seen    = map[*types.Package]bool{}
		scope   func(s *types.Scope, imports []*types.Package)
	)
	scope = func(s *types.Scope, imports []*types.Package) {
		for _, name := range s.Names() {
			if it, ok := s.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
				}
			}
		}
		for _, imp := range imports {
			if !seen[imp] {
				seen[imp] = true
				scope(imp.Scope(), imp.Imports())
			}
		}
	}
	scope(types.Universe, nil) // error
	for _, p := range c.pkgs {
		scope(p.types.Scope(), p.types.Imports())
		add := func(id *ast.Ident, n ast.Node, root bool, name, kind string) types.Object {
			obj := p.info.Defs[id]
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && obj != nil {
					if use := c.local(p.info.Uses[id]); use != nil {
						edges[obj] = append(edges[obj], use)
					}
				}
				return true
			})
			order = append(order, obj)
			if root || slices.Contains(c.roots, p.rel) {
				work = append(work, obj)
			}
			if kind != "" && (p.rel == "." || strings.HasPrefix(p.rel, "internal/")) {
				judged[obj] = c.finding(p, name, "unreachable "+kind, n.Pos())
			}
			return obj
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d, d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main", d.Name.Name, "func")
						continue
					}
					var recv *ast.Ident // of T, *T or T[P]
					ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && recv == nil {
							recv = id
						}
						return true
					})
					tn := p.info.Uses[recv]
					methods[tn] = append(methods[tn], add(d.Name, d, false, recv.Name+"."+d.Name.Name, "method"))
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s, false, s.Name.Name, "type")
						case *ast.ValueSpec: // constants and variables carry edges but are not judged
							for _, id := range s.Names {
								add(id, s, false, "", "")
							}
						}
					}
				}
			}
		}
	}
	for len(work) > 0 {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if !reached[obj] {
				reached[obj] = true
				work = append(work, edges[obj]...)
			}
		}
		for _, obj := range order {
			for _, m := range methods[obj] {
				for _, it := range ifaces[m.Name()] {
					if !reached[obj] || reached[m] {
						break
					}
					if t := obj.Type(); t.(*types.Named).TypeParams().Len() > 0 || types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
						work = append(work, m)
						break
					}
				}
			}
		}
	}
	for _, obj := range order {
		if f, ok := judged[obj]; ok && !reached[obj] {
			out = append(out, f)
		}
	}
	return out
}

// fields reports, for the exported fields of every *Config, *Options,
// *Experiment and Fleet struct, (b) one that no non-test
// code sets and (c) one that is set but never read — not counting the
// struct's own package's defaults and validation functions.
func (c *reachCensus) fields() (out []reachFinding) {
	type usage struct {
		p         *reachPkg
		name      string
		set, read bool
	}
	use := map[types.Object]*usage{}
	var order []*types.Var
	for _, p := range c.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Assign != 0 || p.types.Name() == "main" {
					return true
				}
				name := ts.Name.Name
				st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
				if ok && (strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
					strings.HasSuffix(name, "Experiment") || name == "Fleet") {
					for i := 0; i < st.NumFields(); i++ {
						if f := st.Field(i); f.Exported() {
							use[f], order = &usage{p: p, name: name + "." + f.Name()}, append(order, f)
							c.options[c.finding(p, name, "", 0).key]++
						}
					}
				}
				return true
			})
		}
	}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fn, _ := d.(*ast.FuncDecl)
				defaults := fn != nil && slices.ContainsFunc([]string{"default", "applydefaults", "withdefaults", "validate"},
					func(prefix string) bool { return strings.HasPrefix(strings.ToLower(fn.Name.Name), prefix) })
				// 1 assigned; 2 assigned and read: x.F += 1, &x.F, and the
				// x.F of x.F.G = v, which sets part of F.
				written := map[*ast.Ident]int{}
				var mark func(e ast.Expr, m int)
				mark = func(e ast.Expr, m int) {
					if sel, ok := e.(*ast.SelectorExpr); ok {
						written[sel.Sel] = m
						mark(sel.X, 2)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							written[id] = 1
						}
					case *ast.AssignStmt:
						m := 2
						if n.Tok == token.ASSIGN {
							m = 1
						}
						for _, lhs := range n.Lhs {
							mark(lhs, m)
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							mark(n.X, 2)
						}
					case *ast.Ident:
						if u := use[c.local(p.info.Uses[n])]; u != nil && !(defaults && u.p == p) {
							u.set = u.set || written[n] > 0
							u.read = u.read || written[n] != 1
						}
					}
					return true
				})
			}
		}
	}
	for _, f := range order {
		if u := use[f]; !u.set {
			out = append(out, c.finding(u.p, u.name, "option nobody sets", f.Pos()))
		} else if !u.read {
			out = append(out, c.finding(u.p, u.name, "option set and never read", f.Pos()))
		}
	}
	return out
}
