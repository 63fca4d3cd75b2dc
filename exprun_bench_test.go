package kafkarel_test

// The execution-layer scaling benches record how figure-reproduction
// wall time responds to the worker-pool size. Results are identical for
// every worker count (the determinism tests assert that); these benches
// record the perf side of the trade in the bench trajectory. Run with:
//
//	go test -bench=ExprunScaling -benchtime=1x
//
// EXPERIMENTS.md records measured speedups.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"kafkarel"
	"kafkarel/internal/figures"
	"kafkarel/internal/sweep"
)

// scalingWorkers is the swept pool-size axis.
var scalingWorkers = []int{1, 2, 4, 8}

// speedupFloor is the minimum acceptable parallel speedup on a host
// with at least `workers` cores: two workers must beat sequential
// execution outright, and four or more must exceed 1.5x. The bars stay
// well below ideal scaling (4 workers ~4x) — they catch the execution
// layer silently serialising or drowning in shared-state overhead, not
// scheduler jitter.
func speedupFloor(workers int) float64 {
	if workers >= 4 {
		return 1.5
	}
	return 1.0
}

// looseSpeedupCheck fails a multi-core run whose parallel speedup is at
// or below the floor for its worker count. On hosts with fewer cores
// than workers it just records the measurement.
func looseSpeedupCheck(b *testing.B, workers int, seq, par time.Duration) {
	if seq <= 0 || par <= 0 {
		return
	}
	speedup := float64(seq) / float64(par)
	b.ReportMetric(speedup, "speedup_vs_w1")
	if runtime.GOMAXPROCS(0) >= workers && workers > 1 && speedup <= speedupFloor(workers) {
		b.Errorf("workers=%d on a %d-core host: speedup %.2fx vs workers=1 (want > %.2fx)",
			workers, runtime.GOMAXPROCS(0), speedup, speedupFloor(workers))
	}
}

// BenchmarkExprunScaling measures Fig. 7 reproduction (88 experiments)
// wall time at workers ∈ {1, 2, 4, 8}.
func BenchmarkExprunScaling(b *testing.B) {
	perWorker := map[int]time.Duration{}
	for _, workers := range scalingWorkers {
		b.Run(fmt.Sprintf("fig7/workers=%d", workers), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				points, err := figures.Fig7(figures.Options{
					Messages: 600, Seed: 1, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(points) != 88 {
					b.Fatalf("%d points", len(points))
				}
			}
			perWorker[workers] = time.Since(start) / time.Duration(b.N)
			looseSpeedupCheck(b, workers, perWorker[1], perWorker[workers])
		})
	}
}

// BenchmarkFig3SweepScaling measures the Fig. 3 training-data sweep
// (the paper's collection bottleneck) at workers 1 vs 4 over a grid
// slice spanning both subspaces.
func BenchmarkFig3SweepScaling(b *testing.B) {
	grid := append(sweep.NormalGrid()[:24], sweep.AbnormalGrid()[:24]...)
	perWorker := map[int]time.Duration{}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				ds, err := kafkarel.CollectDataset(grid, kafkarel.SweepOptions{
					Messages: 600, Seed: 1, Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(ds) != len(grid) {
					b.Fatalf("%d samples", len(ds))
				}
			}
			perWorker[workers] = time.Since(start) / time.Duration(b.N)
			looseSpeedupCheck(b, workers, perWorker[1], perWorker[workers])
		})
	}
}
