// Package dynconf implements the paper's dynamic configuration scheme
// (Sec. V): given a known (forecast) network trace and a stream profile,
// it walks configuration space with the prediction model towards the
// highest weighted KPI γ, emits an offline configuration schedule (the
// paper's "configuration file"), and evaluates the schedule against the
// static default configuration on the testbed, reporting the overall
// loss and duplicate rates R_l and R_d of Eq. 3.
package dynconf

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/kpi"
	"kafkarel/internal/netem"
	"kafkarel/internal/testbed"
)

// Searcher performs the paper's stepwise parameter walk: "For each
// parameter, we move its current value stepwise forward or backward and
// substitute the value into our prediction model." The steps are the
// knob values of the grid the predictor was trained on, so the walk
// only asks the model about configurations it has seen. The paper stops
// once γ meets a user requirement; here the walk climbs until no single
// step raises γ (EXPERIMENTS.md, Table II deviations).
type Searcher struct {
	eval      *kpi.Evaluator
	semantics []int
	batch     []int
	poll      []time.Duration
	timeout   []time.Duration
}

// NewSearcher wires a KPI evaluator to the grid its predictor was
// trained on; the walk steps along the grid's distinct semantics, B, δ
// and T_o values.
func NewSearcher(eval *kpi.Evaluator, grid []features.Vector) (*Searcher, error) {
	if eval == nil {
		return nil, fmt.Errorf("dynconf: nil evaluator")
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("dynconf: empty training grid")
	}
	s := &Searcher{eval: eval}
	for _, v := range grid {
		s.semantics = append(s.semantics, v.Semantics)
		s.batch = append(s.batch, v.BatchSize)
		s.poll = append(s.poll, v.PollInterval)
		s.timeout = append(s.timeout, v.MessageTimeout)
	}
	s.semantics, s.batch = knob(s.semantics), knob(s.batch)
	s.poll, s.timeout = knob(s.poll), knob(s.timeout)
	return s, nil
}

// knob sorts values and drops repeats.
func knob[T cmp.Ordered](values []T) []T {
	slices.Sort(values)
	return slices.Compact(values)
}

// steps returns the grid values adjacent to v: the largest below it and
// the smallest above it. For a v off the grid these are its nearest
// grid values on either side.
func steps[T cmp.Ordered](grid []T, v T) []T {
	i, found := slices.BinarySearch(grid, v)
	var out []T
	if i > 0 {
		out = append(out, grid[i-1])
	}
	if found {
		i++
	}
	if i < len(grid) {
		out = append(out, grid[i])
	}
	return out
}

// neighbours enumerates the single-knob steps from v.
func (s *Searcher) neighbours(v features.Vector) []features.Vector {
	var out []features.Vector
	for _, x := range steps(s.semantics, v.Semantics) {
		n := v
		n.Semantics = x
		out = append(out, n)
	}
	for _, x := range steps(s.batch, v.BatchSize) {
		n := v
		n.BatchSize = x
		out = append(out, n)
	}
	for _, x := range steps(s.poll, v.PollInterval) {
		n := v
		n.PollInterval = x
		out = append(out, n)
	}
	for _, x := range steps(s.timeout, v.MessageTimeout) {
		n := v
		n.MessageTimeout = x
		out = append(out, n)
	}
	return out
}

// Improve climbs from start, taking the best single-knob step while one
// raises γ, and returns where it stopped and its score. Every step
// strictly raises γ and the grid is finite, so the walk ends. A step
// the predictor cannot score (a semantics it has no model for) is
// skipped.
func (s *Searcher) Improve(start features.Vector) (features.Vector, kpi.Breakdown, error) {
	if err := start.Validate(); err != nil {
		return features.Vector{}, kpi.Breakdown{}, fmt.Errorf("dynconf: %w", err)
	}
	cur := start
	best, err := s.eval.Score(cur)
	if err != nil {
		return features.Vector{}, kpi.Breakdown{}, fmt.Errorf("dynconf: %w", err)
	}
	for {
		next, nextScore := cur, best
		for _, n := range s.neighbours(cur) {
			sc, err := s.eval.Score(n)
			if err != nil {
				continue // unmodelled region: skip the move
			}
			if sc.Gamma > nextScore.Gamma {
				next, nextScore = n, sc
			}
		}
		if nextScore.Gamma <= best.Gamma {
			return cur, best, nil
		}
		cur, best = next, nextScore
	}
}

// GenerateSchedule walks the network trace at the reconfiguration
// interval (the paper checks γ "every other time interval (i.e. every 60
// seconds)"), and at each checkpoint searches from the current
// configuration under the forecast network condition. The result is the
// offline configuration file: from each change's At onward the producer
// runs with its Features.
func GenerateSchedule(s *Searcher, trace netem.Trace, stream features.Vector, interval time.Duration) ([]testbed.ConfigChange, error) {
	if s == nil {
		return nil, fmt.Errorf("dynconf: nil searcher")
	}
	return schedule(trace, stream, interval, func(cur features.Vector, seg netem.Segment) (features.Vector, error) {
		cur.DelayMs = seg.DelayMs
		cur.LossRate = seg.LossRate
		next, _, err := s.Improve(cur)
		return next, err
	})
}

// schedule is the checkpoint loop both schedulers share: at every
// interval it asks choose for the configuration under the forecast
// segment, given the configuration chosen last. Only the configuration
// features of the choice travel into the schedule; stream supplies the
// rest. Consecutive identical configurations are merged, since every
// configuration change costs coordination overhead (Sec. V).
func schedule(trace netem.Trace, stream features.Vector, interval time.Duration,
	choose func(cur features.Vector, seg netem.Segment) (features.Vector, error)) ([]testbed.ConfigChange, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("dynconf: empty trace")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("dynconf: non-positive interval %v", interval)
	}
	if err := stream.Validate(); err != nil {
		return nil, fmt.Errorf("dynconf: stream: %w", err)
	}
	end := trace[len(trace)-1].Start + interval
	cur := stream
	var out []testbed.ConfigChange
	for at := time.Duration(0); at < end; at += interval {
		seg, ok := trace.ConditionAt(at)
		if !ok {
			continue
		}
		next, err := choose(cur, seg)
		if err != nil {
			return nil, fmt.Errorf("dynconf: at %v: %w", at, err)
		}
		cur = withConfig(stream, next)
		if len(out) > 0 && sameConfig(out[len(out)-1].Features, cur) {
			continue
		}
		out = append(out, testbed.ConfigChange{At: at, Features: cur})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dynconf: schedule came out empty")
	}
	return out, nil
}

// withConfig returns v running cfg's configuration features (semantics,
// B, δ, T_o); v's stream and network features stay.
func withConfig(v, cfg features.Vector) features.Vector {
	v.Semantics = cfg.Semantics
	v.BatchSize = cfg.BatchSize
	v.PollInterval = cfg.PollInterval
	v.MessageTimeout = cfg.MessageTimeout
	return v
}

func sameConfig(a, b features.Vector) bool {
	return withConfig(a, b) == a
}
