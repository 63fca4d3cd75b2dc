package netem

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/stats"
)

// Segment is one piece of a time-varying network condition: from Start
// onward the path has the given constant one-way delay and independent
// packet-loss rate. It is a pure description — no sampler, no random
// state — so a Trace can be shared by any number of runs, concurrent ones
// included, and each run draws its own loss realisation (see Apply).
type Segment struct {
	Start    time.Duration
	DelayMs  float64
	LossRate float64
}

// Trace is a piecewise-constant network condition schedule, ordered by
// Start time.
type Trace []Segment

// Apply schedules every segment switch on the simulator. Segments whose
// Start is in the simulator's past are applied immediately in order. The
// loss samplers are built here, over one random stream derived from seed:
// the same trace applied with the same seed loses the same packets, and
// nothing the run draws outlives it.
func (tr Trace) Apply(sim *des.Simulator, p *Path, seed uint64) error {
	if sim == nil || p == nil {
		return fmt.Errorf("netem: Trace.Apply with nil simulator or path")
	}
	if !sort.SliceIsSorted(tr, func(i, j int) bool { return tr[i].Start < tr[j].Start }) {
		return fmt.Errorf("netem: trace segments not sorted by start time")
	}
	rng := rand.New(rand.NewPCG(seed, 0x7ace10555eed))
	for _, seg := range tr {
		delay := stats.Constant{Value: seg.DelayMs}
		loss, err := stats.NewBernoulli(seg.LossRate, rng)
		if err != nil {
			return fmt.Errorf("netem: trace segment at %v: %w", seg.Start, err)
		}
		apply := func() {
			p.SetDelay(delay)
			p.SetLoss(loss)
		}
		if seg.Start <= sim.Now() {
			apply()
		} else {
			sim.Schedule(seg.Start, apply)
		}
	}
	return nil
}

// ConditionAt returns the segment in force at time t, or false when t
// precedes the first segment.
func (tr Trace) ConditionAt(t time.Duration) (Segment, bool) {
	var cur Segment
	found := false
	for _, seg := range tr {
		if seg.Start <= t {
			cur = seg
			found = true
		} else {
			break
		}
	}
	return cur, found
}

// TraceSpec parameterises the synthetic network of the paper's dynamic-
// configuration experiment (Fig. 9): mean delay resampled per interval
// from a Pareto distribution and loss rate from a Gilbert-Elliot chain
// sampled at interval granularity.
type TraceSpec struct {
	// Duration of the whole trace and the resampling interval.
	Duration time.Duration
	Interval time.Duration
	// Pareto delay parameters (milliseconds).
	DelayScaleMs float64
	DelayShape   float64
	// Gilbert-Elliot chain parameters for the per-interval loss process.
	GEGoodToBad float64
	GEBadToGood float64
	// Loss rates (probability) experienced while the chain is in the Good
	// and Bad states.
	GoodLoss float64
	BadLoss  float64
}

// DefaultTraceSpec reproduces the character of Fig. 9: a 10-minute trace
// resampled every 10 s; delay mostly tens of milliseconds with Pareto
// spikes past 200 ms; loss mostly near zero with bursts in the 10-25 %
// band where the paper says reconfiguration pays off.
func DefaultTraceSpec() TraceSpec {
	return TraceSpec{
		Duration:     10 * time.Minute,
		Interval:     10 * time.Second,
		DelayScaleMs: 20,
		DelayShape:   1.5,
		GEGoodToBad:  0.18,
		GEBadToGood:  0.35,
		GoodLoss:     0.005,
		BadLoss:      0.16,
	}
}

// Generate builds a concrete Trace from the spec using the given seed.
// Each segment gets a constant delay (the Pareto draw, capped at 500 ms
// like NetEm practice) and an independent-loss rate that comes from the
// Gilbert-Elliot state with ±30 % multiplicative jitter.
func (spec TraceSpec) Generate(seed uint64) (Trace, error) {
	if spec.Duration <= 0 || spec.Interval <= 0 {
		return nil, fmt.Errorf("netem: trace spec needs positive duration and interval")
	}
	if spec.Interval > spec.Duration {
		return nil, fmt.Errorf("netem: interval %v exceeds duration %v", spec.Interval, spec.Duration)
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	pareto, err := stats.NewPareto(spec.DelayScaleMs, spec.DelayShape, rng)
	if err != nil {
		return nil, fmt.Errorf("netem: trace delay model: %w", err)
	}
	n := int(spec.Duration / spec.Interval)
	tr := make(Trace, 0, n)
	bad := false
	for i := 0; i < n; i++ {
		if bad {
			if rng.Float64() < spec.GEBadToGood {
				bad = false
			}
		} else {
			if rng.Float64() < spec.GEGoodToBad {
				bad = true
			}
		}
		rate := spec.GoodLoss
		if bad {
			rate = spec.BadLoss
		}
		rate *= 0.7 + 0.6*rng.Float64()
		if rate > 1 {
			rate = 1
		}
		delayMs := pareto.Sample()
		if delayMs > 500 {
			delayMs = 500
		}
		tr = append(tr, Segment{
			Start:    time.Duration(i) * spec.Interval,
			DelayMs:  delayMs,
			LossRate: rate,
		})
	}
	return tr, nil
}

// Point is one row of the Fig. 9 series: the network condition at the
// start of each interval.
type Point struct {
	At      time.Duration
	DelayMs float64
	Loss    float64
}

// Series renders the trace as (time, delay, loss) points for plotting or
// for the repro CLI's fig9 output.
func (tr Trace) Series() []Point {
	out := make([]Point, 0, len(tr))
	for _, seg := range tr {
		out = append(out, Point{At: seg.Start, DelayMs: seg.DelayMs, Loss: seg.LossRate})
	}
	return out
}
