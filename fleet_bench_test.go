package kafkarel_test

// Fleet-scale benches: how the shard-per-topic fleet responds to the
// worker-pool size, and what the sharded registry family costs when
// every shard writes its own registry in parallel. Results are
// identical for every worker count (fleet determinism tests assert
// that); these benches record the perf side. Run with:
//
//	go test -bench=Fleet -benchtime=1x
//
// EXPERIMENTS.md records measured numbers; make bench-gate keeps the
// FleetScaling results from regressing.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"kafkarel"
	"kafkarel/internal/obs"
	"kafkarel/internal/testbed"
)

// fleetBench is the benchmark fleet: 32 producers over 8 topic shards,
// so an 8-worker pool has one shard per worker and the scaling signal
// is the shard fan-out, not intra-shard work.
func fleetBench(seed uint64) testbed.Fleet {
	return testbed.Fleet{
		Features: kafkarel.Features{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        5,
			LossRate:       0.02,
			Semantics:      kafkarel.AtLeastOnce,
			BatchSize:      2,
			MessageTimeout: 2 * time.Second,
		},
		Producers:  32,
		Topics:     8,
		Partitions: 8,
		Messages:   9600,
		Seed:       seed,
	}
}

// BenchmarkFleetScaling measures one fleet run (32 producers, 8 topics,
// 8 partitions, 9600 messages, keyed routing, consumer-group drain) at
// workers ∈ {1, 2, 4, 8}.
func BenchmarkFleetScaling(b *testing.B) {
	perWorker := map[int]time.Duration{}
	for _, workers := range scalingWorkers {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				res, err := testbed.RunFleetContext(context.Background(), fleetBench(uint64(i)+1), workers)
				if err != nil {
					b.Fatal(err)
				}
				if res.Acquired != 9600 {
					b.Fatalf("acquired = %d", res.Acquired)
				}
				b.ReportMetric(res.Pl, "Pl")
			}
			perWorker[workers] = time.Since(start) / time.Duration(b.N)
			looseSpeedupCheck(b, workers, perWorker[1], perWorker[workers])
		})
	}
}

// BenchmarkFleetRegistry measures the registry design the fleet rests on:
// 8 writers each drive 200k counter increments into their own shard of
// an obs.Sharded family, merged once after every writer has finished.
// A shard's metrics are plain integers owned by its writer (the obs
// single-writer contract), so there is no shared-registry variant to
// compare against: it would be a data race.
func BenchmarkFleetRegistry(b *testing.B) {
	const writers = 8
	const incs = 200_000
	b.Run("sharded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := obs.NewSharded(writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				c := s.Shard(w).Counter("bench_incs")
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < incs; k++ {
						c.Inc()
					}
				}()
			}
			wg.Wait()
			if got := s.Merged().Counters[0].Value; got != writers*incs {
				b.Fatalf("merged = %d", got)
			}
		}
	})
}
