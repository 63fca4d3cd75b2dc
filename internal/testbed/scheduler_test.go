package testbed

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kafkarel/internal/des"
)

// spinBeside runs an unrelated simulation on its own goroutine until the
// returned stop is called: with it the simulators inside des's run loop
// outnumber or match the Ps, so the runs under test yield to the Go
// scheduler between events (DESIGN.md §7).
func spinBeside() (stop func()) {
	var done atomic.Bool
	var wg sync.WaitGroup
	sim := des.New()
	var tick func(any)
	tick = func(any) {
		if !done.Load() {
			sim.AfterFunc(time.Microsecond, tick, nil)
		}
	}
	sim.AfterFunc(0, tick, nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = sim.Run()
	}()
	return func() { done.Store(true); wg.Wait() }
}

// The run loop reads GOMAXPROCS and how many simulations are running to
// decide whether to yield. Neither may reach a result: one single run, one
// two-topic fleet and one transactional pipeline render the same bytes on
// one P and on two, alone and beside a busy neighbour.
func TestResultBytesIgnoreGOMAXPROCSAndNeighbours(t *testing.T) {
	render := func() []byte {
		run, err := Run(Experiment{Features: timelineVector(), Messages: 600, Seed: 31, Consumers: 2, MaxSimTime: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		f := smallFleet()
		f.Topics = 2
		f.Producers = 4
		f.Messages = 400
		fleet, err := RunFleet(f)
		if err != nil {
			t.Fatal(err)
		}
		txn, err := RunTxn(TxnExperiment{Seed: 33, Messages: 200, AbortEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !run.Completed || !fleet.Completed || !txn.Completed {
			t.Fatalf("completed: run=%t fleet=%t txn=%t", run.Completed, fleet.Completed, txn.Completed)
		}
		return bytes.Join([][]byte{run.Metrics.Encode(), fleet.Scorecard(), goldenJSON(t, txn)}, nil)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var ref []byte
	for _, procs := range []int{1, 2} {
		for _, neighbour := range []bool{false, true} {
			runtime.GOMAXPROCS(procs)
			got := func() []byte {
				if neighbour {
					defer spinBeside()()
				}
				return render()
			}()
			if ref == nil {
				ref = got
			} else if !bytes.Equal(ref, got) {
				t.Errorf("GOMAXPROCS=%d neighbour=%t: result bytes differ from GOMAXPROCS=1 alone", procs, neighbour)
			}
		}
	}
}
