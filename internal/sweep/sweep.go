// Package sweep implements the paper's training-data collection design
// (Fig. 3): the feature space is split into normal cases (no injected
// network fault: D < 200 ms, L = 0) and abnormal cases (faults injected),
// and only the features found effective in each regime are swept — which
// is what keeps the experiment count tractable. It also implements the
// ±50 % sensitivity analysis of Sec. III-D used to select those features.
//
// Grid points are independent, seed-deterministic experiments, so they
// are executed on the exprun worker pool; per-point seeds are derived
// from the grid index alone, which keeps the collected dataset
// byte-identical across worker counts.
package sweep

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/testbed"
)

// NormalGrid enumerates the normal-case feature space of Fig. 3's left
// oval: no faults injected; the effective features are the message
// timeout T_o, the polling interval δ, the delivery semantics and the
// message size.
func NormalGrid() []features.Vector {
	var grid []features.Vector
	for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce} {
		for _, m := range []int{100, 200, 400} {
			for _, to := range []time.Duration{
				250 * time.Millisecond, 500 * time.Millisecond, 1000 * time.Millisecond,
				1500 * time.Millisecond, 2500 * time.Millisecond,
			} {
				for _, delta := range []time.Duration{
					0, 10 * time.Millisecond, 30 * time.Millisecond, 90 * time.Millisecond,
				} {
					grid = append(grid, features.Vector{
						MessageSize:    m,
						Timeliness:     5 * time.Second,
						DelayMs:        10,
						LossRate:       0,
						Semantics:      sem,
						BatchSize:      1,
						PollInterval:   delta,
						MessageTimeout: to,
					})
				}
			}
		}
	}
	return grid
}

// AbnormalGrid enumerates the abnormal-case feature space of Fig. 3's
// right oval: network faults are injected and the effective features are
// the message size, the network condition (D, L), the batch size and the
// semantics; T_o and δ are pinned to values chosen from the normal-case
// study.
func AbnormalGrid() []features.Vector {
	var grid []features.Vector
	for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce} {
		for _, m := range []int{100, 200, 500} {
			for _, d := range []float64{50, 100, 200} {
				for _, l := range []float64{0.05, 0.10, 0.15, 0.20, 0.30} {
					for _, b := range []int{1, 2, 5, 10} {
						grid = append(grid, features.Vector{
							MessageSize:    m,
							Timeliness:     5 * time.Second,
							DelayMs:        d,
							LossRate:       l,
							Semantics:      sem,
							BatchSize:      b,
							PollInterval:   0,
							MessageTimeout: 1500 * time.Millisecond,
						})
					}
				}
			}
		}
	}
	return grid
}

// CrossProduct is the size of the full grid over the values the given
// grid takes on each feature axis: the product of the distinct values per
// axis. For the two Fig. 3 grids together it is the experiment count the
// normal/abnormal split avoids.
func CrossProduct(grid []features.Vector) int {
	distinct := make([]map[float64]bool, features.Dim)
	for i := range distinct {
		distinct[i] = make(map[float64]bool)
	}
	for _, v := range grid {
		for i, x := range v.Encode() {
			distinct[i][x] = true
		}
	}
	n := 1
	for _, d := range distinct {
		n *= len(d)
	}
	return n
}

// seedStride separates per-grid-point seed streams (the historical
// derivation, kept so collected datasets stay byte-identical).
const seedStride = 7919

// Options tunes a collection run.
type Options struct {
	// Messages per experiment (the paper uses 10^6; probabilities
	// converge far earlier — see EXPERIMENTS.md).
	Messages int
	// Seed derives each experiment's seed deterministically from the grid
	// index, independent of execution order.
	Seed uint64
	// MaxSimTime bounds each experiment's virtual duration (0 = none).
	MaxSimTime time.Duration
	// Workers bounds the experiment worker pool (<= 0: GOMAXPROCS).
	// Results are identical for every worker count.
	Workers int
	// Progress, when non-nil, is invoked after each experiment.
	Progress func(done, total int)
}

// CollectContext runs one testbed experiment per grid point and returns
// the labelled dataset in grid order.
func CollectContext(ctx context.Context, grid []features.Vector, opts Options) (features.Dataset, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	if opts.Messages <= 0 {
		return nil, fmt.Errorf("sweep: message count %d <= 0", opts.Messages)
	}
	seedAt := exprun.LinearSeeds(opts.Seed, seedStride)
	exps := make([]testbed.Experiment, len(grid))
	for i, v := range grid {
		exps[i] = testbed.Experiment{
			Features:   v,
			Messages:   opts.Messages,
			Seed:       seedAt(i),
			MaxSimTime: opts.MaxSimTime,
		}
	}
	results, err := testbed.RunAll(ctx, exps, exprun.Options{Workers: opts.Workers, Progress: opts.Progress})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	ds := make(features.Dataset, len(grid))
	for i, v := range grid {
		ds[i] = features.Sample{X: v, Pl: results[i].Pl, Pd: results[i].Pd}
	}
	return ds, nil
}
