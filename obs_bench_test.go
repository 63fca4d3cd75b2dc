package kafkarel_test

// Observability overhead study: the internal/obs registry must be cheap
// enough to leave on by default, and its fully-disabled (nil-handle)
// form must cost effectively nothing. The three benchmarks below run
// the identical Fig. 7 configuration (L=20%, B=2, at-least-once) with
// metrics disabled, metrics enabled, and metrics+tracing, so the deltas
// isolate the instrumentation cost. TestObsOverheadBudget enforces the
// ISSUE acceptance bar: the disabled registry may add at most 2% over a
// DisableMetrics run. Measured numbers live in EXPERIMENTS.md §obs.
//
//	go test -bench 'Fig7Observability' -benchmem

import (
	"io"
	"testing"
	"time"

	"kafkarel"
	"kafkarel/internal/obs"
)

func obsBenchExperiment(seed uint64) kafkarel.Experiment {
	return kafkarel.Experiment{
		Features: kafkarel.Features{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        10,
			LossRate:       0.20,
			Semantics:      kafkarel.AtLeastOnce,
			BatchSize:      2,
			MessageTimeout: 500 * time.Millisecond,
		},
		Messages: benchMessages,
		Seed:     seed,
	}
}

// BenchmarkFig7ObservabilityDisabled is the baseline: every metric
// handle is nil, so instrumented code paths reduce to a nil check.
func BenchmarkFig7ObservabilityDisabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := obsBenchExperiment(uint64(i))
		e.DisableMetrics = true
		res, err := kafkarel.RunExperiment(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Pl, "Pl")
	}
}

// BenchmarkFig7ObservabilityEnabled runs with the default per-run
// registry attached (counters, gauges, queue-depth histogram).
func BenchmarkFig7ObservabilityEnabled(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := kafkarel.RunExperiment(obsBenchExperiment(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Metrics.SegmentsSent), "segments")
	}
}

// BenchmarkFig7ObservabilityTraced additionally records every lifecycle
// event into an in-memory ring (no JSONL sink).
func BenchmarkFig7ObservabilityTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := obsBenchExperiment(uint64(i))
		e.Tracer = obs.NewTracer(1 << 16)
		if _, err := kafkarel.RunExperiment(e); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(e.Tracer.Total()), "events")
	}
}

// BenchmarkFig7ObservabilityTimeline additionally samples the sim-time
// timeline every virtual second — 10x denser than the 10 s default, so
// the measured delta bounds the default's cost from above. Rows stay
// in memory; BenchmarkTimelineCSV isolates the sink cost.
func BenchmarkFig7ObservabilityTimeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := obsBenchExperiment(uint64(i))
		e.Timeline = obs.NewTimeline(time.Second)
		res, err := kafkarel.RunExperiment(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Timeline.Rows())), "rows")
	}
}

// BenchmarkTimelineCSV measures rendering a captured timeline to CSV
// (the -timeline sink), separate from capturing it.
func BenchmarkTimelineCSV(b *testing.B) {
	e := obsBenchExperiment(1)
	e.Timeline = obs.NewTimeline(time.Second)
	res, err := kafkarel.RunExperiment(e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteMergedCSV(io.Discard, []*obs.Timeline{res.Timeline}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObsOverheadBudget asserts the tentpole's cost bar: with metrics
// enabled (the default), a Fig. 7 run must finish within 2% of the
// fully disabled run. Wall-clock on shared CI machines (and under the
// race detector) is noisy at the ±10% level, so both variants run
// interleaved and the minimum round — the least scheduler-disturbed
// observation — is compared against the 2% design bar plus an explicit
// noise allowance. The regression this guards against is a hot-path
// mistake (a lock, an allocation, reflection) that would cost 2-10x,
// far outside any noise band; the precise sub-2% figure is established
// by the benchmarks above and recorded in EXPERIMENTS.md.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race detector instruments every memory access; the 2% bar applies to production builds")
	}
	const rounds = 7
	const (
		vDisabled = iota // DisableMetrics: the nil-handle baseline
		vEnabled         // default registry
		vTimeline        // registry + timeline sampling every virtual 1 s
	)
	run := func(variant int, seed uint64) time.Duration {
		e := obsBenchExperiment(seed)
		switch variant {
		case vDisabled:
			e.DisableMetrics = true
		case vTimeline:
			e.Timeline = obs.NewTimeline(time.Second)
		}
		start := time.Now()
		if _, err := kafkarel.RunExperiment(e); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm up every path once so lazy init does not bias round 0.
	for v := vDisabled; v <= vTimeline; v++ {
		run(v, 0)
	}
	minOf := func(d []time.Duration) time.Duration {
		m := d[0]
		for _, v := range d[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	var off, on, tl []time.Duration
	for r := 0; r < rounds; r++ {
		off = append(off, run(vDisabled, uint64(r)))
		on = append(on, run(vEnabled, uint64(r)))
		tl = append(tl, run(vTimeline, uint64(r)))
	}
	base, instr, timeline := minOf(off), minOf(on), minOf(tl)
	noise := base / 8 // ±12.5% scheduler/frequency jitter allowance
	if noise < 2*time.Millisecond {
		noise = 2 * time.Millisecond
	}
	budget := base + base/50 + noise // 2% design bar + noise
	t.Logf("disabled min %v, enabled min %v (delta %+.2f%%), timeline min %v (delta %+.2f%%), budget %v",
		base, instr, 100*(float64(instr)-float64(base))/float64(base),
		timeline, 100*(float64(timeline)-float64(base))/float64(base), budget)
	if instr > budget {
		t.Errorf("metrics overhead too high: enabled %v > budget %v (disabled %v)", instr, budget, base)
	}
	// The timeline samples at virtual ticks, never per event, so even at
	// 10x the default density it must stay inside the same 2% bar.
	if timeline > budget {
		t.Errorf("timeline overhead too high: %v > budget %v (disabled %v)", timeline, budget, base)
	}
}

// spanPathObserve plays one delivered record through the full span set
// of the delivery path — wire send, broker append, replication,
// producer ack, consumer delivery, durable commit — exactly the
// histogram writes the instrumented components issue per record.
func spanPathObserve(lat int64, spans *[6]*obs.Histogram) {
	for _, h := range spans {
		h.Observe(lat)
	}
}

func spanPathHists(o *obs.Obs) [6]*obs.Histogram {
	return [6]*obs.Histogram{
		o.Histogram(obs.MSpanSend, obs.LatencyBounds),
		o.Histogram(obs.MSpanAppend, obs.LatencyBounds),
		o.Histogram(obs.MSpanReplicated, obs.LatencyBounds),
		o.Histogram(obs.MSpanAck, obs.LatencyBounds),
		o.Histogram(obs.MSpanDelivery, obs.LatencyBounds),
		o.Histogram(obs.MSpanCommit, obs.LatencyBounds),
	}
}

// BenchmarkSpanPath measures the per-record latency-span cost with the
// registry attached: six bounded-bucket histogram observes (bucket walk
// + add + max compare), zero allocations.
func BenchmarkSpanPath(b *testing.B) {
	o := &obs.Obs{Registry: obs.NewRegistry()}
	spans := spanPathHists(o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanPathObserve(int64(i%int(time.Minute)), &spans)
	}
}

// BenchmarkSpanPathDisabled is the nil-handle form: each observe must
// reduce to a nil check.
func BenchmarkSpanPathDisabled(b *testing.B) {
	var o *obs.Obs
	spans := spanPathHists(o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spanPathObserve(int64(i%int(time.Minute)), &spans)
	}
}

// TestSpanPathZeroAllocs enforces the span hot-path allocation budget
// directly (the bench gate cannot flag a regression from a zero
// baseline): observing a record's spans allocates nothing, enabled or
// disabled.
func TestSpanPathZeroAllocs(t *testing.T) {
	o := &obs.Obs{Registry: obs.NewRegistry()}
	enabled := spanPathHists(o)
	disabled := spanPathHists(nil)
	var lat int64
	if n := testing.AllocsPerRun(1000, func() {
		lat += 17
		spanPathObserve(lat, &enabled)
	}); n != 0 {
		t.Errorf("enabled span path allocates %.1f per record", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		lat += 17
		spanPathObserve(lat, &disabled)
	}); n != 0 {
		t.Errorf("disabled span path allocates %.1f per record", n)
	}
}
