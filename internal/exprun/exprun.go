// Package exprun is the experiment-execution layer: it fans independent,
// seed-deterministic testbed runs out over a bounded worker pool while
// guaranteeing that the observable results are byte-identical to a
// sequential execution, regardless of worker count.
//
// Every result in the paper's evaluation (Figs. 4–8, Tables I/II, the
// Fig. 3 training sweep) is built from hundreds of independent runs, so
// the whole reproduction parallelises embarrassingly well — provided each
// task's randomness is derived from its *index*, never from execution
// order. The contract is therefore:
//
//   - callers precompute per-task inputs (including seeds, see seed.go)
//     before fan-out, so fn(i, task) is a pure function of its arguments;
//   - Map returns results in input order (testbed.RunAll is the one
//     Map over experiment lists);
//   - a failure cancels the tasks still queued, and the lowest-index
//     error among the tasks that actually ran is returned (cancellation
//     may keep later-queued tasks from running at all, and which ones
//     depends on scheduling).
package exprun

import (
	"context"
	"runtime"
	"sync"
)

// Options tunes one Map call.
type Options struct {
	// Workers bounds the pool (<= 0: GOMAXPROCS). A single worker
	// degenerates to a plain sequential loop over the tasks.
	Workers int
	// Progress, when non-nil, is invoked after each task completes
	// (successfully or not) with the completed count and the total. Calls
	// are serialised; done is monotone from 1 to total unless the run is
	// cut short.
	Progress func(done, total int)
}

func (o Options) workers(tasks int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs fn over every task on a bounded worker pool and returns the
// results in input order. fn must be a pure function of (index, task):
// it is called at most once per task, from arbitrary goroutines, and
// must not depend on execution order. A failure cancels the tasks still
// queued; the error returned is then the lowest-index one recorded and
// the slice is nil. Progress calls are serialised.
func Map[T, R any](ctx context.Context, tasks []T, fn func(ctx context.Context, index int, task T) (R, error), opts Options) ([]R, error) {
	n := len(tasks)
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		results  = make([]R, n)
		mu       sync.Mutex // serialises progress and error state
		done     int
		taskErrs map[int]error
	)
	finish := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if taskErrs == nil {
				taskErrs = make(map[int]error)
			}
			taskErrs[i] = err
			cancel()
		}
		done++
		if opts.Progress != nil {
			opts.Progress(done, n)
		}
	}

	workers := opts.workers(n)
	indices := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Each worker owns one scratch slot for warm per-trial state;
			// see Scratch for the determinism contract.
			wctx := context.WithValue(ctx, scratchKey{}, new(Scratch))
			for i := range indices {
				if ctx.Err() != nil {
					// Cancelled while queued: the task never ran, so no
					// completion is recorded for it.
					continue
				}
				r, err := fn(wctx, i, tasks[i])
				if err == nil {
					results[i] = r
				}
				finish(i, err)
			}
		}()
	}
	for i := 0; i < n; i++ {
		indices <- i
	}
	close(indices)
	wg.Wait()

	// Report the lowest-index error recorded. With one worker this is
	// exactly the first failure a sequential loop would hit; with more,
	// cancellation may have kept an even lower-index queued task from
	// running, so "lowest recorded" is the strongest claim available.
	for i := 0; i < n && len(taskErrs) > 0; i++ {
		if err, ok := taskErrs[i]; ok {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
