package dynconf

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/kpi"
	"kafkarel/internal/netem"
	"kafkarel/internal/sweep"
	"kafkarel/internal/testbed"
	"kafkarel/internal/workload"
)

// DefaultVector returns the static default configuration the paper
// compares against in Table II: streaming (B = 1), fire-and-forget
// full-load intake, 1.5 s delivery budget.
func DefaultVector(profile workload.Profile) features.Vector {
	return features.Vector{
		MessageSize:    profile.MeanSize,
		Timeliness:     profile.Timeliness,
		Semantics:      features.SemanticsAtMostOnce,
		BatchSize:      1,
		PollInterval:   0,
		MessageTimeout: 1500 * time.Millisecond,
	}
}

// StreamOutcome is one Table II column pair: the overall message loss
// and duplicate rates (Eq. 3) under the static default and under the
// dynamic configuration schedule.
type StreamOutcome struct {
	Profile   workload.Profile
	DefaultRl float64
	DefaultRd float64
	DynamicRl float64
	DynamicRd float64
	// Reconfigurations is the number of distinct schedule entries.
	Reconfigurations int
}

// Options configures the Table II pipeline.
type Options struct {
	// Messages per evaluation run (per stream).
	Messages int
	// Seed drives trace generation, training and evaluation.
	Seed uint64
	// TraceSpec parameterises the Fig. 9 network (zero value: default).
	TraceSpec netem.TraceSpec
	// Interval is the reconfiguration check period (default 60 s).
	Interval time.Duration
	// Predictor, when non-nil, skips training (otherwise TrainMessages
	// experiments are run per training-grid point). A supplied model
	// stands for one trained on TrainingGrid: the search steps along that
	// grid's knob values whatever the model was fitted on.
	Predictor *core.Predictor
	// TrainMessages is the per-experiment message count when training
	// (default 2000).
	TrainMessages int
	// Workers bounds the experiment worker pool used for the training
	// sweep and the default-vs-dynamic evaluation pair (<= 0: GOMAXPROCS).
	// Outcomes are identical for every worker count.
	Workers int
	// Progress, when non-nil, receives coarse pipeline status lines.
	Progress func(string)
}

func (o *Options) defaults() {
	if o.TraceSpec == (netem.TraceSpec{}) {
		o.TraceSpec = netem.DefaultTraceSpec()
	}
	if o.Interval == 0 {
		o.Interval = 60 * time.Second
	}
	if o.TrainMessages == 0 {
		o.TrainMessages = 2000
	}
}

// TrainingGrid enumerates the feature region the predictor is trained
// on: both semantics, batch sizes, poll intervals and timeouts across the
// trace's delay/loss envelope, at the given message size. Its knob
// values are also the only ones the search steps through (NewSearcher).
func TrainingGrid(messageSize int, timeliness time.Duration) []features.Vector {
	var grid []features.Vector
	for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce} {
		for _, b := range []int{1, 2, 5} {
			for _, delta := range []time.Duration{0, 30 * time.Millisecond, 90 * time.Millisecond} {
				for _, to := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 3 * time.Second} {
					for _, cond := range [][2]float64{{20, 0}, {60, 0.005}, {120, 0.08}, {200, 0.16}, {400, 0.25}} {
						grid = append(grid, features.Vector{
							MessageSize:    messageSize,
							Timeliness:     timeliness,
							DelayMs:        cond[0],
							LossRate:       cond[1],
							Semantics:      sem,
							BatchSize:      b,
							PollInterval:   delta,
							MessageTimeout: to,
						})
					}
				}
			}
		}
	}
	return grid
}

// TableII runs the full dynamic-configuration evaluation for the three
// paper stream profiles (or any provided ones) and returns one outcome
// per stream. Profiles run in sequence (each trains its own predictor
// and logs coarse progress); within a profile the training sweep fans
// out over the exprun pool, as do the static-default and
// dynamic-schedule evaluation runs. The offline schedule search itself
// stays sequential: each checkpoint's stepwise walk starts from the
// configuration the previous checkpoint chose.
func TableII(ctx context.Context, profiles []workload.Profile, opts Options) ([]StreamOutcome, error) {
	if len(profiles) == 0 {
		profiles = workload.Profiles()
	}
	if opts.Messages <= 0 {
		return nil, fmt.Errorf("dynconf: message count %d <= 0", opts.Messages)
	}
	opts.defaults()
	say := opts.Progress
	if say == nil {
		say = func(string) {}
	}

	trace, err := opts.TraceSpec.Generate(opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("dynconf: %w", err)
	}

	var out []StreamOutcome
	for pi, profile := range profiles {
		grid := TrainingGrid(profile.MeanSize, profile.Timeliness)
		pred := opts.Predictor
		if pred == nil {
			say(fmt.Sprintf("training predictor for %s (grid sweep)...", profile.Name))
			ds, err := sweep.CollectContext(ctx, grid, sweep.Options{
				Messages:   opts.TrainMessages,
				Seed:       opts.Seed + uint64(pi)*31,
				MaxSimTime: 10 * time.Minute,
				Workers:    opts.Workers,
			})
			if err != nil {
				return nil, fmt.Errorf("dynconf: %s: %w", profile.Name, err)
			}
			pred, _, err = core.Train(ds, opts.Seed)
			if err != nil {
				return nil, fmt.Errorf("dynconf: %s: %w", profile.Name, err)
			}
		}
		eval, err := kpi.NewEvaluator(pred, kpi.Weights(profile.Weights))
		if err != nil {
			return nil, fmt.Errorf("dynconf: %s: %w", profile.Name, err)
		}
		searcher, err := NewSearcher(eval, grid)
		if err != nil {
			return nil, fmt.Errorf("dynconf: %s: %w", profile.Name, err)
		}

		base := DefaultVector(profile)
		say(fmt.Sprintf("generating schedule for %s...", profile.Name))
		schedule, err := GenerateSchedule(searcher, trace, base, opts.Interval)
		if err != nil {
			return nil, fmt.Errorf("dynconf: %s: %w", profile.Name, err)
		}

		// The stream must span the whole trace: offer full-load input for
		// the trace duration, bounded by the caller's message budget.
		needed := int(testbed.FullLoadRate(profile.MeanSize) *
			opts.TraceSpec.Duration.Seconds() * 1.1)
		messages := opts.Messages
		if needed < messages {
			messages = needed
		}
		// The static-default and dynamic-schedule evaluations share the
		// seed (the comparison must isolate the configuration effect) and
		// are independent, so they run as one two-experiment batch.
		say(fmt.Sprintf("evaluating %s: static default vs dynamic schedule...", profile.Name))
		static := testbed.Experiment{
			Features:   base,
			Messages:   messages,
			Seed:       opts.Seed + 1000 + uint64(pi),
			Trace:      trace,
			MaxSimTime: opts.TraceSpec.Duration,
		}
		dynamic := static
		dynamic.Schedule = schedule
		evals, err := testbed.RunAll(ctx, []testbed.Experiment{static, dynamic}, exprun.Options{Workers: opts.Workers})
		if err != nil {
			return nil, fmt.Errorf("dynconf: %s: %w", profile.Name, err)
		}
		defRes, dynRes := evals[0], evals[1]

		out = append(out, StreamOutcome{
			Profile:          profile,
			DefaultRl:        defRes.Pl,
			DefaultRd:        defRes.Pd,
			DynamicRl:        dynRes.Pl,
			DynamicRd:        dynRes.Pd,
			Reconfigurations: len(schedule),
		})
	}
	return out, nil
}
