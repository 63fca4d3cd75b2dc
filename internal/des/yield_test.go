package des

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chain schedules a self-rescheduling no-op event on sim that fires while
// more() says so.
func chain(sim *Simulator, more func() bool) {
	var tick func(any)
	tick = func(any) {
		if more() {
			sim.AfterFunc(time.Microsecond, tick, nil)
		}
	}
	sim.AfterFunc(0, tick, nil)
}

// chainN is chain for exactly n events.
func chainN(sim *Simulator, n int) {
	chain(sim, func() bool { n--; return n > 0 })
}

func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// With every P held by a simulation, whatever else is runnable — the GC's
// mark worker is what matters — gets the P long before sysmon's 10 ms
// forced preemption: 20 000 empty events are about a millisecond. On a
// stalled host the preemption can make this pass without the yield; it
// cannot make it fail with it.
func TestRunLetsARunnableGoroutineIn(t *testing.T) {
	setProcs(t, 1)
	sim := New()
	chainN(sim, 20000)
	var ran atomic.Bool
	go ran.Store(true)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Error("a goroutine runnable before Run had not run when Run returned")
	}
}

func TestRunYieldsOnlyWhenSimulationsHoldEveryP(t *testing.T) {
	const n = 5000

	setProcs(t, 1)
	crowded := New()
	chainN(crowded, n)
	if err := crowded.Run(); err != nil {
		t.Fatal(err)
	}
	if crowded.fired != n || crowded.yields != n/yieldEvery {
		t.Errorf("one simulator on one P: %d yields in %d events, want %d", crowded.yields, crowded.fired, n/yieldEvery)
	}

	runtime.GOMAXPROCS(2)
	alone := New()
	chainN(alone, n)
	if err := alone.Run(); err != nil {
		t.Fatal(err)
	}
	if alone.yields != 0 {
		t.Errorf("one simulator on two Ps yielded %d times, want 0", alone.yields)
	}

	// Two at once: each keeps firing until both have yielded, so neither
	// can finish before the other has entered run. The cap turns a yield
	// that never comes into a failure instead of a hang.
	const eventCap = 20_000_000
	var yielded atomic.Int32
	var wg sync.WaitGroup
	sims := [2]*Simulator{New(), New()}
	for _, sim := range sims {
		seen := false
		chain(sim, func() bool {
			if !seen && sim.yields > 0 {
				seen = true
				yielded.Add(1)
			}
			return yielded.Load() < 2 && sim.fired < eventCap
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sim.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, sim := range sims {
		if sim.yields == 0 {
			t.Errorf("simulator %d of two on two Ps never yielded in %d events", i, sim.fired)
		}
	}
}

// The count of running simulators goes back to zero on every way out of
// run; a leak would make every later simulation in the process yield.
func TestRunningCountReturnsToZero(t *testing.T) {
	exits := map[string]func(*Simulator){
		"Run":      func(s *Simulator) { _ = s.Run() },
		"RunUntil": func(s *Simulator) { _ = s.RunUntil(time.Millisecond) },
		"RunLimit": func(s *Simulator) { _ = s.RunLimit(3) },
		"panic": func(s *Simulator) {
			defer func() { _ = recover() }()
			s.After(0, func() { panic("callback") })
			_ = s.Run()
		},
	}
	for name, exit := range exits {
		sim := New()
		chainN(sim, 5000)
		sim.After(0, func() {
			if got := running.Load(); got != 1 {
				t.Errorf("%s: %d simulators counted inside run, want 1", name, got)
			}
		})
		exit(sim)
		if got := running.Load(); got != 0 {
			t.Errorf("after %s: %d simulators still counted as running", name, got)
		}
	}
}
