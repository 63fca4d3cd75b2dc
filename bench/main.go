// Command bench is the repository's benchmark: host cost per simulated
// record on four workloads, with a per-layer cost table. README.md in
// this directory says what each number means and why it was chosen;
// BENCHMARK.json at the repository root is the contract it is run under.
//
//	go run ./bench                          # all workloads, both passes
//	go run ./bench -workload fig7_sweep     # one workload, both passes
//	go run ./bench -trace 1                 # the traced pass alone
//	go run ./bench -agree a.json b.json     # do two result sets agree?
//
// Run it from the repository root: spans and result files go to
// bench/out/.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

const outDir = "bench/out"

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeats  int
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only (default: all four)")
	flag.Uint64Var(&o.seed, "seed", 1, "feeds every Seed field and plan seed of the workload inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "how long the headline pass measures for")
	flag.IntVar(&o.trace, "trace", -1, "0: headline pass, 1: traced per-layer pass (default: both)")
	flag.IntVar(&o.repeats, "repeats", 0, "timed repeats of the headline pass (default: as many as fit in -seconds)")
	flag.StringVar(&o.out, "o", "", "also write the result set as JSON to this file")
	doAgree := flag.Bool("agree", false, "compare two result-set files given as arguments; exit non-zero if they disagree")
	setup := flag.Bool("setup-only", false, "internal: set up -workload, print the set-up seconds, exit")
	flag.Parse()

	var err error
	switch {
	case *doAgree:
		err = runAgree(flag.Args())
	default:
		err = run(o, *setup)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func runAgree(files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-agree takes two result-set files")
	}
	a, err := readResultSet(files[0])
	if err != nil {
		return err
	}
	b, err := readResultSet(files[1])
	if err != nil {
		return err
	}
	if !agree(os.Stdout, a, b) {
		return fmt.Errorf("%s and %s disagree", files[0], files[1])
	}
	return nil
}

func run(o options, setup bool) error {
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if o.seconds < 1 || o.repeats < 0 || o.trace < -1 || o.trace > 1 {
		return fmt.Errorf("need -seconds >= 1, -repeats >= 0 and -trace 0 or 1")
	}

	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	if setup {
		if len(selected) != 1 {
			return fmt.Errorf("-setup-only needs -workload")
		}
		return setupOnly(selected[0], o.seed)
	}
	passes := []int{0, 1}
	if o.trace >= 0 {
		passes = []int{o.trace}
	}

	// One (workload, pass) pair runs here; more run one fresh process
	// each, so no run inherits another's heap or warmed caches.
	if len(selected) == 1 && len(passes) == 1 {
		return runOne(selected[0], passes[0], o)
	}
	return runMany(selected, passes, o)
}

// runOne measures one (workload, pass) pair in this process. Its last
// line of standard output is the contract's result object.
func runOne(w workload, pass int, o options) error {
	var rec runRecord
	var err error
	if pass == 0 {
		rec, err = headline(w, o.seed, float64(o.seconds), o.repeats)
	} else {
		var t *tracer
		rec, t, err = traced(w, o.seed)
		if err == nil {
			err = t.write(filepath.Join(outDir, "trace-"+w.name+".json"))
		}
	}
	if err != nil {
		return err
	}
	if fp, ok := goldenFingerprint(o.seed, w.name); ok {
		changed := fp != rec.Fingerprint
		rec.StatsChanged = &changed
	}
	rs := resultSet{Host: describeHost(o.seed, o.seconds, o.repeats), Runs: []runRecord{rec}}
	fmt.Println("host:", rs.Host)
	printRun(rec)
	if o.out != "" {
		if err := writeResultSet(o.out, rs); err != nil {
			return err
		}
	}
	line, err := rec.contractLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runMany runs each (workload, pass) pair as a child process of this
// program, one after another, and merges their result sets.
func runMany(selected []workload, passes []int, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var merged resultSet
	for _, pass := range passes {
		for _, w := range selected {
			part := filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", w.name, pass))
			cmd := exec.Command(exe,
				"-workload", w.name, "-trace", strconv.Itoa(pass),
				"-seed", strconv.FormatUint(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
				"-repeats", strconv.Itoa(o.repeats), "-o", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.name, pass, err)
			}
			rs, err := readResultSet(part)
			if err != nil {
				return err
			}
			merged.Host = rs.Host
			merged.Runs = append(merged.Runs, rs.Runs...)
		}
	}
	printSummary(merged)
	if o.out != "" {
		return writeResultSet(o.out, merged)
	}
	return nil
}

func printRun(r runRecord) {
	fmt.Printf("workload %s trace=%d: records/repeat=%d repeats=%d operations attempted=%d failed=%d correct=%t\n",
		r.Workload, r.Trace, r.Records, r.Repeats, r.Attempted, r.Failed, r.Correct)
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	notExposed := make(map[string]bool, len(r.NotExposed))
	for _, name := range r.NotExposed {
		notExposed[name] = true
	}
	for _, def := range defs {
		v := r.Metrics[def.Name]
		switch sp, ok := r.Spreads[def.Name]; {
		case notExposed[def.Name]:
			fmt.Printf("  %-34s %14s %-5s (not exposed by this workload's result)\n", def.Name, "n/a", v.Unit)
		case ok && r.Trace == 0:
			fmt.Printf("  %-34s %14.4f %-5s (minimum; quartiles %.4f %.4f %.4f, n=%d)\n",
				def.Name, v.Value, v.Unit, sp.Lower, sp.Median, sp.Upper, sp.N)
		default:
			fmt.Printf("  %-34s %14.4f %-5s\n", def.Name, v.Value, v.Unit)
		}
	}
	if r.Trace == 1 {
		var sum float64
		for _, layer := range append([]string{"other"}, cpuLayers...) {
			sum += r.Metrics[layer+".cpu_share"].Value
		}
		fmt.Printf("  %-34s %14.4f\n", "sum of cpu_share", sum)
		pkgs := make([]string, 0, len(r.OtherShares))
		for pkg := range r.OtherShares {
			pkgs = append(pkgs, pkg)
		}
		sort.Slice(pkgs, func(i, j int) bool { return r.OtherShares[pkgs[i]] > r.OtherShares[pkgs[j]] })
		for _, pkg := range pkgs {
			fmt.Printf("    %-32s %14.4f ratio\n", "other: "+pkg, r.OtherShares[pkg])
		}
		base := r.Spreads["wall_ns_per_record"]
		fmt.Printf("  %-34s %14.4f ns    (median of this pass's %d unprofiled repeats; the base of its ratios)\n",
			"wall_ns_per_record", base.Median, base.N)
	}
	fmt.Printf("  sim_fingerprint %s\n", r.Fingerprint)
	if r.StatsChanged != nil {
		fmt.Printf("  sim_stats_changed: %t\n", *r.StatsChanged)
	} else {
		fmt.Println("  sim_stats_changed: unknown (golden.json pins no fingerprint for this seed)")
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// printSummary is the table a full invocation ends with: one row per
// workload and end-to-end metric, then each workload's three largest
// CPU shares.
func printSummary(rs resultSet) {
	fmt.Println()
	fmt.Println("summary —", rs.Host)
	for i, r := range rs.Runs {
		if r.Trace != 0 {
			continue
		}
		if i == 0 {
			fmt.Printf("%-14s", "workload")
			for _, def := range endToEnd {
				fmt.Printf(" %24s", def.Name+" ["+def.Unit+"]")
			}
			fmt.Printf(" %10s %7s\n", "attempted", "failed")
		}
		fmt.Printf("%-14s", r.Workload)
		for _, def := range endToEnd {
			fmt.Printf(" %24.4f", r.Metrics[def.Name].Value)
		}
		fmt.Printf(" %10d %7d\n", r.Attempted, r.Failed)
	}
	for _, r := range rs.Runs {
		if r.Trace != 1 {
			continue
		}
		layers := append([]string{"other"}, cpuLayers...)
		sort.Slice(layers, func(i, j int) bool {
			return r.Metrics[layers[i]+".cpu_share"].Value > r.Metrics[layers[j]+".cpu_share"].Value
		})
		fmt.Printf("%-14s top cpu shares:", r.Workload)
		for _, l := range layers[:3] {
			fmt.Printf(" %s %.3f", l, r.Metrics[l+".cpu_share"].Value)
		}
		fmt.Printf("; trace.overhead_ratio %.3f\n", r.Metrics["trace.overhead_ratio"].Value)
	}
}
