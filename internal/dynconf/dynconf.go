// Package dynconf implements the paper's dynamic configuration scheme
// (Sec. V): given a known (forecast) network trace and a stream profile,
// it searches configuration space with the prediction model until the
// weighted KPI γ meets the user's requirement, emits an offline
// configuration schedule (the paper's "configuration file"), and
// evaluates the schedule against the static default configuration on the
// testbed, reporting the overall loss and duplicate rates R_l and R_d of
// Eq. 3.
package dynconf

import (
	"fmt"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/kpi"
	"kafkarel/internal/netem"
	"kafkarel/internal/testbed"
)

// Searcher performs the paper's stepwise parameter walk: "For each
// parameter, we move its current value stepwise forward or backward and
// substitute the value into our prediction model... We repeat this until
// the predicted γ meets the requirement." The goal is satisficing, not
// maximising (Sec. V).
type Searcher struct {
	eval *kpi.Evaluator
	// MaxSteps bounds the walk (default 32).
	MaxSteps int
}

// NewSearcher wires a KPI evaluator.
func NewSearcher(eval *kpi.Evaluator) (*Searcher, error) {
	if eval == nil {
		return nil, fmt.Errorf("dynconf: nil evaluator")
	}
	return &Searcher{eval: eval, MaxSteps: 32}, nil
}

// neighbours enumerates single-step moves of each tunable parameter.
func neighbours(v features.Vector, modelled func(int) bool) []features.Vector {
	var out []features.Vector
	// Delivery semantics toggle.
	for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce, features.SemanticsExactlyOnce} {
		if sem != v.Semantics && modelled(sem) {
			n := v
			n.Semantics = sem
			out = append(out, n)
		}
	}
	// Batch size ±1 within [1, 10] (the Fig. 7 range).
	if v.BatchSize > 1 {
		n := v
		n.BatchSize--
		out = append(out, n)
	}
	if v.BatchSize < 10 {
		n := v
		n.BatchSize++
		out = append(out, n)
	}
	// Polling interval ±15 ms within [0, 120 ms] (the Fig. 6 range).
	const deltaStep = 15 * time.Millisecond
	if v.PollInterval >= deltaStep {
		n := v
		n.PollInterval -= deltaStep
		out = append(out, n)
	}
	if v.PollInterval <= 120*time.Millisecond-deltaStep {
		n := v
		n.PollInterval += deltaStep
		out = append(out, n)
	}
	// Message timeout ×/÷ 1.5 within [250 ms, 5 s] (the Fig. 5 range).
	if lo := time.Duration(float64(v.MessageTimeout) / 1.5); lo >= 250*time.Millisecond {
		n := v
		n.MessageTimeout = lo
		out = append(out, n)
	}
	if hi := time.Duration(float64(v.MessageTimeout) * 1.5); hi <= 5*time.Second {
		n := v
		n.MessageTimeout = hi
		out = append(out, n)
	}
	return out
}

// Improve walks from start until γ meets target or no single-parameter
// move helps, returning the best configuration found and its score.
func (s *Searcher) Improve(start features.Vector, target float64) (features.Vector, kpi.Breakdown, error) {
	if err := start.Validate(); err != nil {
		return features.Vector{}, kpi.Breakdown{}, fmt.Errorf("dynconf: %w", err)
	}
	modelled := make(map[int]bool)
	cur := start
	best, err := s.eval.Score(cur)
	if err != nil {
		return features.Vector{}, kpi.Breakdown{}, fmt.Errorf("dynconf: %w", err)
	}
	maxSteps := s.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 32
	}
	isModelled := func(sem int) bool {
		if v, ok := modelled[sem]; ok {
			return v
		}
		probe := cur
		probe.Semantics = sem
		_, err := s.eval.Score(probe)
		modelled[sem] = err == nil
		return modelled[sem]
	}
	for step := 0; step < maxSteps && best.Gamma < target; step++ {
		improved := false
		bestNext := cur
		bestScore := best
		for _, n := range neighbours(cur, isModelled) {
			sc, err := s.eval.Score(n)
			if err != nil {
				continue // unmodelled region: skip the move
			}
			if sc.Gamma > bestScore.Gamma {
				bestNext, bestScore = n, sc
				improved = true
			}
		}
		if !improved {
			break
		}
		cur, best = bestNext, bestScore
	}
	return cur, best, nil
}

// ScheduleEntry is one line of the offline configuration file: from At
// onward the producer runs with Config.
type ScheduleEntry struct {
	At     time.Duration
	Config features.Vector
	Score  kpi.Breakdown
}

// GenerateSchedule walks the network trace at the reconfiguration
// interval (the paper checks γ "every other time interval (i.e. every 60
// seconds)"), and at each checkpoint searches from the current
// configuration until γ meets the target under the forecast network
// condition. Consecutive identical configurations are merged, since every
// configuration change costs coordination overhead (Sec. V).
func GenerateSchedule(s *Searcher, trace netem.Trace, stream features.Vector, target float64, interval time.Duration) ([]ScheduleEntry, error) {
	if s == nil {
		return nil, fmt.Errorf("dynconf: nil searcher")
	}
	if len(trace) == 0 {
		return nil, fmt.Errorf("dynconf: empty trace")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("dynconf: non-positive interval %v", interval)
	}
	end := trace[len(trace)-1].Start + interval
	cur := stream
	var out []ScheduleEntry
	for at := time.Duration(0); at < end; at += interval {
		seg, ok := trace.ConditionAt(at)
		if !ok {
			continue
		}
		forecast := cur
		forecast.DelayMs = seg.DelayMs
		forecast.LossRate = seg.LossRate
		next, score, err := s.Improve(forecast, target)
		if err != nil {
			return nil, fmt.Errorf("dynconf: at %v: %w", at, err)
		}
		// Only the configuration features travel into the schedule.
		cur.Semantics = next.Semantics
		cur.BatchSize = next.BatchSize
		cur.PollInterval = next.PollInterval
		cur.MessageTimeout = next.MessageTimeout
		if len(out) > 0 && sameConfig(out[len(out)-1].Config, cur) {
			continue
		}
		out = append(out, ScheduleEntry{At: at, Config: cur, Score: score})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dynconf: schedule came out empty")
	}
	return out, nil
}

func sameConfig(a, b features.Vector) bool {
	return a.Semantics == b.Semantics && a.BatchSize == b.BatchSize &&
		a.PollInterval == b.PollInterval && a.MessageTimeout == b.MessageTimeout
}

// ToConfigChanges converts schedule entries into testbed reconfiguration
// events.
func ToConfigChanges(entries []ScheduleEntry) []testbed.ConfigChange {
	out := make([]testbed.ConfigChange, 0, len(entries))
	for _, e := range entries {
		out = append(out, testbed.ConfigChange{At: e.At, Features: e.Config})
	}
	return out
}
