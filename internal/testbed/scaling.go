package testbed

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/exprun"
	"kafkarel/internal/obs"
)

// scalingSeedStride separates the per-producer seed streams of a scaled
// run (historical derivation, kept so scaled results stay byte-identical
// to the sequential original).
const scalingSeedStride = 15485863

// RunScaled evaluates the paper's producer-scaling strategy (Sec. IV-C):
// to keep the aggregate message arrival rate while relieving each
// producer, the number of producers grows from N_p to N_p' as the poll
// interval grows, following N_p/δ = N_p'/(δ + Δδ). Here the experiment
// is split across `producers` independent producers, each carrying an
// equal share of the source and polling slowly enough that the aggregate
// offered rate matches the single-producer experiment.
func RunScaled(e Experiment, producers int) (Result, error) {
	return RunScaledContext(context.Background(), e, producers, 0)
}

// RunScaledContext is RunScaled with cancellation and an explicit worker
// bound for the per-producer simulations (<= 0: GOMAXPROCS). Each
// producer is an independent simulation with an index-derived seed and
// the partial results — scorecard numbers and entity-tagged timelines
// alike — are merged in producer order, so the aggregate is identical
// for every worker count.
func RunScaledContext(ctx context.Context, e Experiment, producers, workers int) (Result, error) {
	if producers <= 0 {
		return Result{}, fmt.Errorf("testbed: producer count %d <= 0", producers)
	}
	if producers == 1 {
		return Run(e)
	}
	if e.Tracer != nil {
		// A tracer binds a single virtual clock; interleaving the
		// independent clocks of parallel sub-simulations would produce a
		// meaningless total event order. Tracing stays single-producer.
		return Result{}, fmt.Errorf("testbed: event tracing requires a single producer, got %d", producers)
	}
	if e.Messages < producers {
		return Result{}, fmt.Errorf("testbed: %d messages across %d producers", e.Messages, producers)
	}
	cal, err := e.Calibration.resolved()
	if err != nil {
		return Result{}, err
	}
	// Per-producer arrival period is io + δ; scaling multiplies it by the
	// producer count so the aggregate rate is unchanged.
	ioMean := time.Duration(float64(time.Second) / cal.FullLoadRate(e.Features.MessageSize))
	period := ioMean + e.Features.PollInterval
	scaledPoll := time.Duration(producers)*period - ioMean
	if scaledPoll < 0 {
		scaledPoll = 0
	}

	seedAt := exprun.LinearSeeds(e.Seed, scalingSeedStride)
	share := e.Messages / producers
	subs := make([]Experiment, producers)
	for i := range subs {
		sub := e
		sub.Features.PollInterval = scaledPoll
		sub.Messages = share
		if i == producers-1 {
			sub.Messages = e.Messages - share*(producers-1)
		}
		sub.Seed = seedAt(i)
		if e.Timeline != nil {
			// The experiment's timeline is a template: each sub-simulation
			// samples its own entity-tagged copy on its own virtual clock,
			// and the merged Result carries all of them in producer order
			// for obs.WriteMergedCSV.
			tl := obs.NewTimeline(e.Timeline.Interval())
			tl.SetEntity(fmt.Sprintf("p%04d", i))
			sub.Timeline = tl
		}
		subs[i] = sub
	}
	results, err := exprun.Map(ctx, subs,
		func(ctx context.Context, i int, sub Experiment) (Result, error) {
			res, err := RunCtx(ctx, sub)
			if err != nil {
				return Result{}, fmt.Errorf("testbed: producer %d: %w", i, err)
			}
			return res, nil
		},
		exprun.Options{Workers: workers})
	if err != nil {
		return Result{}, err
	}
	agg := Result{Completed: true}
	for _, res := range results {
		agg.add(res)
	}
	agg.Pl, agg.Pd = agg.Report.Pl(), agg.Report.Pd()
	return agg, nil
}

// add folds one independent sub-simulation into the scaled aggregate:
// counts and rates sum, the duration is the slowest sub-run's, and the
// aggregate completed only if every sub-run drained its source.
func (a *Result) add(b Result) {
	a.Report.Add(b.Report)
	a.Producer.Add(b.Producer)
	a.Acquired += b.Acquired
	a.Metrics.Merge(b.Metrics)
	a.Latency.Merge(b.Latency)
	a.Timelines = append(a.Timelines, b.Timelines...)
	a.Throughput += b.Throughput
	if b.Duration > a.Duration {
		a.Duration = b.Duration
	}
	a.Completed = a.Completed && b.Completed
}
