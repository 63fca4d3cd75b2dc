package sweep

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/testbed"
)

// SensitivityResult records one parameter's ±50 % perturbation effect
// (Sec. III-D: "A change in the quantitative parameter's default value
// of 50% should have observable impact on reliability metrics, otherwise
// the parameter is neglected").
type SensitivityResult struct {
	Parameter string
	// BasePl/BasePd are the metrics at the unperturbed default.
	BasePl, BasePd float64
	// LowPl/LowPd and HighPl/HighPd are the metrics at -50 % and +50 %.
	LowPl, LowPd   float64
	HighPl, HighPd float64
	// Impact is the largest absolute metric change across perturbations.
	Impact float64
	// Selected reports whether Impact clears the threshold.
	Selected bool
}

// SensitivityOptions tunes the analysis.
type SensitivityOptions struct {
	Messages int
	Seed     uint64
	// Workers bounds the experiment worker pool (<= 0: GOMAXPROCS).
	Workers int
}

// perturbation describes how to scale one parameter of a base vector.
type perturbation struct {
	name  string
	apply func(features.Vector, float64) features.Vector
}

func perturbations() []perturbation {
	return []perturbation{
		{"message_size", func(v features.Vector, f float64) features.Vector {
			v.MessageSize = int(float64(v.MessageSize) * f)
			if v.MessageSize < 1 {
				v.MessageSize = 1
			}
			return v
		}},
		{"batch_size", func(v features.Vector, f float64) features.Vector {
			v.BatchSize = int(float64(v.BatchSize)*f + 0.5)
			if v.BatchSize < 1 {
				v.BatchSize = 1
			}
			return v
		}},
		{"poll_interval", func(v features.Vector, f float64) features.Vector {
			if v.PollInterval == 0 {
				// δ = 0 cannot be scaled; perturb around a small absolute
				// step instead.
				v.PollInterval = time.Duration(float64(20*time.Millisecond) * (f - 0.5) * 2)
				if v.PollInterval < 0 {
					v.PollInterval = 0
				}
				return v
			}
			v.PollInterval = time.Duration(float64(v.PollInterval) * f)
			return v
		}},
		{"message_timeout", func(v features.Vector, f float64) features.Vector {
			v.MessageTimeout = time.Duration(float64(v.MessageTimeout) * f)
			return v
		}},
		{"network_delay", func(v features.Vector, f float64) features.Vector {
			v.DelayMs *= f
			return v
		}},
		{"loss_rate", func(v features.Vector, f float64) features.Vector {
			v.LossRate *= f
			if v.LossRate > 1 {
				v.LossRate = 1
			}
			return v
		}},
	}
}

// selectionThreshold is the Impact a parameter must reach to be selected
// as a feature.
const selectionThreshold = 0.01

// SensitivityContext perturbs each quantitative parameter of base by
// ±50 % and measures the reliability impact, reproducing the paper's
// feature selection procedure. The base run and every perturbed run are
// independent experiments, so all of them execute on one exprun pool.
func SensitivityContext(ctx context.Context, base features.Vector, opts SensitivityOptions) ([]SensitivityResult, error) {
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if opts.Messages <= 0 {
		return nil, fmt.Errorf("sweep: message count %d <= 0", opts.Messages)
	}
	perts := perturbations()
	// Experiment 0 is the unperturbed base; 1+2k and 2+2k are parameter
	// k's -50 % and +50 % runs. Every run uses the same seed: the
	// comparison must isolate the parameter effect from the fault
	// realisation, especially near the TCP-collapse boundary where runs
	// are bistable.
	vs := []features.Vector{base}
	for _, p := range perts {
		vs = append(vs, p.apply(base, 0.5), p.apply(base, 1.5))
	}
	exps := make([]testbed.Experiment, len(vs))
	for i, v := range vs {
		exps[i] = testbed.Experiment{Features: v, Messages: opts.Messages, Seed: opts.Seed}
	}
	runs, err := testbed.RunAll(ctx, exps, exprun.Options{Workers: opts.Workers})
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	basePl, basePd := runs[0].Pl, runs[0].Pd
	var out []SensitivityResult
	for k, p := range perts {
		low, high := runs[1+2*k], runs[2+2*k]
		r := SensitivityResult{
			Parameter: p.name,
			BasePl:    basePl, BasePd: basePd,
			LowPl: low.Pl, LowPd: low.Pd,
			HighPl: high.Pl, HighPd: high.Pd,
		}
		for _, d := range []float64{
			abs(r.LowPl - basePl), abs(r.HighPl - basePl),
			abs(r.LowPd - basePd), abs(r.HighPd - basePd),
		} {
			if d > r.Impact {
				r.Impact = d
			}
		}
		r.Selected = r.Impact >= selectionThreshold
		out = append(out, r)
	}
	return out, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
