package sweep

import (
	"context"
	"testing"

	"kafkarel/internal/features"
	"kafkarel/internal/testbed"
)

// The execution-layer contract for the Fig. 3 sweep: a collected
// dataset is identical for every worker count and identical to the
// pre-refactor sequential loop, which ran testbed.Run per grid point
// with seed opts.Seed + i*7919.

func TestCollectDeterministicAcrossWorkers(t *testing.T) {
	grid := append(NormalGrid()[:4], AbnormalGrid()[:4]...)
	opts := Options{Messages: 200, Seed: 21}

	// Pre-refactor sequential reference.
	var want features.Dataset
	for i, v := range grid {
		res, err := testbed.Run(testbed.Experiment{
			Features:   v,
			Messages:   opts.Messages,
			Seed:       opts.Seed + uint64(i)*7919,
			MaxSimTime: opts.MaxSimTime,
		})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, features.Sample{X: v, Pl: res.Pl, Pd: res.Pd})
	}

	for _, workers := range []int{1, 4, 8} {
		o := opts
		o.Workers = workers
		got, err := CollectContext(context.Background(), grid, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("workers=%d: sample %d = %+v, sequential reference %+v",
					workers, j, got[j], want[j])
			}
		}
	}
}

func TestSensitivityDeterministicAcrossWorkers(t *testing.T) {
	base := features.Vector{
		MessageSize: 200, Timeliness: 5_000_000_000, DelayMs: 50, LossRate: 0.18,
		Semantics: features.SemanticsAtMostOnce, BatchSize: 2,
		MessageTimeout: 700_000_000,
	}
	var ref []SensitivityResult
	for _, workers := range []int{1, 4, 8} {
		got, err := SensitivityContext(context.Background(), base, SensitivityOptions{Messages: 250, Seed: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("workers=%d: result %d = %+v, want %+v", workers, i, got[i], ref[i])
			}
		}
	}
}
