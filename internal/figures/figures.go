// Package figures pins down the exact experiment behind every figure and
// table in the paper's evaluation, so the CLI (cmd/repro), the repository
// benchmark (bench/) and the shape tests all regenerate the same series
// from one definition. EXPERIMENTS.md records paper-vs-measured values
// for each.
package figures

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/producer"
	"kafkarel/internal/sweep"
	"kafkarel/internal/testbed"
)

// Options applies to every figure run.
type Options struct {
	// Messages per experiment point (default 20000).
	Messages int
	// Seed drives all randomness. Every experiment's seed is derived from
	// Seed and the experiment's position in the figure, so regenerated
	// series are identical for any Workers setting.
	Seed uint64
	// Workers bounds the experiment worker pool (<= 0: GOMAXPROCS).
	Workers int
	// Context, when non-nil, cancels in-flight experiment batches.
	Context context.Context
	// Progress, when non-nil, is called once per finished experiment.
	Progress func(done, total int)
}

func (o Options) messages() int {
	if o.Messages > 0 {
		return o.Messages
	}
	return 20000
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// seedStride separates the per-experiment seed streams of a figure (the
// historical derivation, kept so regenerated series stay byte-identical
// to the sequential original; each figure offsets its experiment indices
// into a disjoint range).
const seedStride = 2654435761

// maxSimTime bounds any single experiment; the slowest points (1000-byte
// messages at ~1 msg/s) need hours of virtual time for large counts.
func maxSimTime(messages int) time.Duration {
	d := time.Duration(messages) * time.Second // ≥1 msg/s worst case
	if d < 30*time.Minute {
		d = 30 * time.Minute
	}
	return d
}

// runBatch runs one figure's experiments and returns the results in
// vector order. Vector i runs at the seed of index first+i: each figure
// keeps the disjoint index range it has always used. edit, when
// non-nil, adjusts each experiment before the batch runs.
func runBatch(o Options, first int, vectors []features.Vector, edit func(*testbed.Experiment)) ([]testbed.Result, error) {
	seedAt := exprun.LinearSeeds(o.Seed, seedStride)
	exps := make([]testbed.Experiment, len(vectors))
	for i, v := range vectors {
		exps[i] = testbed.Experiment{
			Features:   v,
			Messages:   o.messages(),
			Seed:       seedAt(first + i),
			MaxSimTime: maxSimTime(o.messages()),
		}
		if edit != nil {
			edit(&exps[i])
		}
	}
	results, err := testbed.RunAll(o.ctx(), exps, exprun.Options{Workers: o.Workers, Progress: o.Progress})
	if err != nil {
		return nil, fmt.Errorf("figures: %w", err)
	}
	return results, nil
}

// --- Fig. 4 ---------------------------------------------------------------

// Fig4Point is one marker of Fig. 4: P_l over message size M for one
// delivery semantics, at D = 100 ms and L = 19 %.
type Fig4Point struct {
	MessageSize int
	Semantics   int
	Pl          float64
	Pd          float64
}

// Fig4Sizes is the swept message-size axis (the paper sweeps 50-1000 B).
var Fig4Sizes = []int{50, 100, 200, 300, 500, 750, 1000}

// Fig4Vector returns the experiment definition for one Fig. 4 point.
func Fig4Vector(messageSize, semantics int) features.Vector {
	return features.Vector{
		MessageSize:    messageSize,
		Timeliness:     5 * time.Second,
		DelayMs:        100,
		LossRate:       0.19,
		Semantics:      semantics,
		BatchSize:      1,
		PollInterval:   0,
		MessageTimeout: 1500 * time.Millisecond,
	}
}

// Fig4 regenerates the message-size study.
func Fig4(o Options) ([]Fig4Point, error) {
	var vs []features.Vector
	sems := []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce}
	for _, m := range Fig4Sizes {
		for _, sem := range sems {
			vs = append(vs, Fig4Vector(m, sem))
		}
	}
	results, err := runBatch(o, 0, vs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Fig4Point, len(vs))
	for i, v := range vs {
		out[i] = Fig4Point{MessageSize: v.MessageSize, Semantics: v.Semantics,
			Pl: results[i].Pl, Pd: results[i].Pd}
	}
	return out, nil
}

// --- Fig. 5 ---------------------------------------------------------------

// Fig5Point is one marker of Fig. 5: P_l over the message timeout T_o at
// full load with no injected faults.
type Fig5Point struct {
	Timeout   time.Duration
	Semantics int
	Pl        float64
}

// Fig5Timeouts is the swept T_o axis.
var Fig5Timeouts = []time.Duration{
	250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond,
	1000 * time.Millisecond, 1500 * time.Millisecond, 2000 * time.Millisecond,
	2500 * time.Millisecond,
}

// Fig5Vector returns the experiment definition for one Fig. 5 point.
func Fig5Vector(timeout time.Duration, semantics int) features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        10,
		LossRate:       0,
		Semantics:      semantics,
		BatchSize:      1,
		PollInterval:   0,
		MessageTimeout: timeout,
	}
}

// Fig5 regenerates the message-timeout study.
func Fig5(o Options) ([]Fig5Point, error) {
	var vs []features.Vector
	sems := []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce}
	for _, to := range Fig5Timeouts {
		for _, sem := range sems {
			vs = append(vs, Fig5Vector(to, sem))
		}
	}
	results, err := runBatch(o, 100, vs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Fig5Point, len(vs))
	for i, v := range vs {
		out[i] = Fig5Point{Timeout: v.MessageTimeout, Semantics: v.Semantics, Pl: results[i].Pl}
	}
	return out, nil
}

// --- Fig. 6 ---------------------------------------------------------------

// Fig6Point is one marker of Fig. 6: P_l over the polling interval δ at
// T_o = 500 ms with no injected faults, at-most-once.
type Fig6Point struct {
	PollInterval time.Duration
	Pl           float64
}

// Fig6Intervals is the swept δ axis.
var Fig6Intervals = []time.Duration{
	0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond,
	45 * time.Millisecond, 60 * time.Millisecond, 75 * time.Millisecond,
	90 * time.Millisecond,
}

// Fig6Vector returns the experiment definition for one Fig. 6 point.
func Fig6Vector(delta time.Duration) features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        10,
		LossRate:       0,
		Semantics:      features.SemanticsAtMostOnce,
		BatchSize:      1,
		PollInterval:   delta,
		MessageTimeout: 500 * time.Millisecond,
	}
}

// Fig6 regenerates the polling-interval study.
func Fig6(o Options) ([]Fig6Point, error) {
	vs := make([]features.Vector, len(Fig6Intervals))
	for i, delta := range Fig6Intervals {
		vs[i] = Fig6Vector(delta)
	}
	results, err := runBatch(o, 200, vs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Fig6Point, len(vs))
	for i, v := range vs {
		out[i] = Fig6Point{PollInterval: v.PollInterval, Pl: results[i].Pl}
	}
	return out, nil
}

// --- Fig. 7 ---------------------------------------------------------------

// Fig7Point is one marker of Fig. 7: P_l over the packet loss rate L for
// one batch size and semantics.
type Fig7Point struct {
	LossRate  float64
	BatchSize int
	Semantics int
	Pl        float64
}

// Fig7Losses and Fig7Batches are the swept axes (the paper sweeps
// L ∈ [0, 50 %] and B ∈ [1, 10]).
var (
	Fig7Losses  = []float64{0, 0.05, 0.08, 0.10, 0.13, 0.16, 0.20, 0.25, 0.30, 0.40, 0.50}
	Fig7Batches = []int{1, 2, 5, 10}
)

// Fig7Vector returns the experiment definition for one Fig. 7 point.
func Fig7Vector(loss float64, batch, semantics int) features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        10,
		LossRate:       loss,
		Semantics:      semantics,
		BatchSize:      batch,
		PollInterval:   0,
		MessageTimeout: 500 * time.Millisecond,
	}
}

// Fig7 regenerates the batching-under-loss study.
func Fig7(o Options) ([]Fig7Point, error) {
	var vs []features.Vector
	sems := []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce}
	for _, b := range Fig7Batches {
		for _, l := range Fig7Losses {
			for _, sem := range sems {
				vs = append(vs, Fig7Vector(l, b, sem))
			}
		}
	}
	results, err := runBatch(o, 300, vs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Fig7Point, len(vs))
	for i, v := range vs {
		out[i] = Fig7Point{LossRate: v.LossRate, BatchSize: v.BatchSize,
			Semantics: v.Semantics, Pl: results[i].Pl}
	}
	return out, nil
}

// --- Fig. 8 ---------------------------------------------------------------

// Fig8Point is one marker of Fig. 8: P_d over the batch size B under
// at-least-once delivery for one loss rate.
type Fig8Point struct {
	BatchSize int
	LossRate  float64
	Pd        float64
	Pl        float64
}

// Fig8Batches and Fig8Losses are the swept axes.
var (
	Fig8Batches = []int{1, 2, 3, 4, 6, 8, 10}
	Fig8Losses  = []float64{0.05, 0.10, 0.15, 0.20}
)

// Fig8Vector returns the experiment definition for one Fig. 8 point. The
// delivery budget is generous (3 s) so that spurious-timeout retries —
// the Case 5 duplicate mechanism — can happen at all.
func Fig8Vector(batch int, loss float64) features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        100,
		LossRate:       loss,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      batch,
		PollInterval:   0,
		MessageTimeout: 3 * time.Second,
	}
}

// Fig8 regenerates the duplicate study.
func Fig8(o Options) ([]Fig8Point, error) {
	var vs []features.Vector
	for _, l := range Fig8Losses {
		for _, b := range Fig8Batches {
			vs = append(vs, Fig8Vector(b, l))
		}
	}
	results, err := runBatch(o, 600, vs, nil)
	if err != nil {
		return nil, err
	}
	out := make([]Fig8Point, len(vs))
	for i, v := range vs {
		out[i] = Fig8Point{BatchSize: v.BatchSize, LossRate: v.LossRate,
			Pd: results[i].Pd, Pl: results[i].Pl}
	}
	return out, nil
}

// --- Fig. 9 ---------------------------------------------------------------

// Fig9 generates the dynamic-configuration experiment's network trace
// series (Pareto-distributed delay, Gilbert-Elliot loss).
func Fig9(seed uint64) ([]netem.Point, error) {
	trace, err := netem.DefaultTraceSpec().Generate(seed)
	if err != nil {
		return nil, fmt.Errorf("figures: fig9: %w", err)
	}
	return trace.Series(), nil
}

// --- Table I --------------------------------------------------------------

// Table1Row is one message-state case with its observed frequency. It
// is the producer package's unified tally row; the alias keeps older
// call sites compiling.
type Table1Row = producer.CaseCount

// Table1Result is the empirical Table I: how often each case occurred in
// a retry-friendly faulted run, with the consumer-side duplicate count
// resolving Case 4 vs Case 5.
type Table1Result struct {
	Rows []Table1Row
	// Case5 is the consumer-observed duplicate count (messages persisted
	// more than once), which the producer alone cannot distinguish from
	// Case 4.
	Case5 uint64
	Total uint64
}

// Table1 classifies message outcomes under a moderately faulted network
// with retries enabled, exercising every Fig. 2 transition.
func Table1(o Options) (Table1Result, error) {
	v := features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        100,
		LossRate:       0.15,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      1,
		PollInterval:   20 * time.Millisecond,
		MessageTimeout: 4 * time.Second,
	}
	res, err := testbed.Run(testbed.Experiment{
		Features:       v,
		Messages:       o.messages(),
		Seed:           o.Seed + 77,
		MaxSimTime:     maxSimTime(o.messages()),
		RequestTimeout: 1500 * time.Millisecond,
		MaxRetries:     5,
	})
	if err != nil {
		return Table1Result{}, fmt.Errorf("figures: table1: %w", err)
	}
	return Table1Result{
		Rows:  res.Producer.Cases(),
		Total: res.Producer.Total,
		Case5: res.Report.NDuplicated,
	}, nil
}

// --- Prediction accuracy (the Figs. 4-6 predicted-vs-measured overlays) ----

// AccuracyResult reports the prediction-model evaluation: held-out MAE
// (the paper reports < 0.02) and sample predicted-vs-measured pairs.
type AccuracyResult struct {
	Metrics core.Metrics
	// Pairs are (measured, predicted) samples of the held-out split the
	// metrics are computed over, for the overlay plots.
	Pairs []AccuracyPair
}

// AccuracyPair is one overlay marker.
type AccuracyPair struct {
	X           features.Vector
	MeasuredPl  float64
	PredictedPl float64
	MeasuredPd  float64
	PredictedPd float64
}

// Fig3 returns the training grid of Fig. 3 — the normal oval, then the
// abnormal one — and how every trainer collects it: a quarter of the
// figure message count per experiment, seed o.Seed+1, a 20-minute
// horizon per experiment.
func Fig3(o Options) ([]features.Vector, sweep.Options) {
	return append(sweep.NormalGrid(), sweep.AbnormalGrid()...), sweep.Options{
		Messages:   o.messages() / 4,
		Seed:       o.Seed + 1,
		MaxSimTime: 20 * time.Minute,
		Workers:    o.Workers,
		Progress:   o.Progress,
	}
}

// Accuracy collects the Fig. 3 sweep, trains the predictor, and pairs
// each held-out sample with its prediction.
func Accuracy(o Options) (AccuracyResult, error) {
	grid, sweepOpts := Fig3(o)
	ds, err := sweep.CollectContext(o.ctx(), grid, sweepOpts)
	if err != nil {
		return AccuracyResult{}, fmt.Errorf("figures: accuracy sweep: %w", err)
	}
	pred, metrics, err := core.Train(ds, o.Seed)
	if err != nil {
		return AccuracyResult{}, fmt.Errorf("figures: accuracy train: %w", err)
	}
	out := AccuracyResult{Metrics: metrics}
	for _, s := range metrics.HeldOut {
		p, err := pred.Predict(s.X)
		if err != nil {
			return AccuracyResult{}, fmt.Errorf("figures: accuracy predict: %w", err)
		}
		out.Pairs = append(out.Pairs, AccuracyPair{
			X:           s.X,
			MeasuredPl:  s.Pl,
			PredictedPl: p.Pl,
			MeasuredPd:  s.Pd,
			PredictedPd: p.Pd,
		})
	}
	return out, nil
}
