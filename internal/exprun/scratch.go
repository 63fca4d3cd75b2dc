package exprun

import "context"

// scratchKey carries the per-worker Scratch through task contexts.
type scratchKey struct{}

// Scratch is a per-worker slot for reusable trial state. Each worker of
// a Map call owns exactly one Scratch for the call's
// lifetime, and every task the worker runs sees the same slot through
// its context — so expensive warm state (a reset simulator, grown
// buffers) survives from one trial to the next without ever being
// shared between concurrent tasks.
//
// Determinism contract: state kept in a Scratch must be reset to an
// observably pristine condition at the start of each task; results must
// stay byte-identical whether a task got a fresh value or a recycled
// one (see des.Simulator.Reset for the canonical example).
type Scratch struct{ v any }

// Get returns the value left by a previous task on this worker, or nil.
func (s *Scratch) Get() any {
	if s == nil {
		return nil
	}
	return s.v
}

// Set stores a value for later tasks on this worker.
func (s *Scratch) Set(v any) {
	if s != nil {
		s.v = v
	}
}

// ContextScratch returns the calling task's per-worker Scratch, or nil
// when ctx did not come from a Map worker.
func ContextScratch(ctx context.Context) *Scratch {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(scratchKey{}).(*Scratch)
	return s
}
