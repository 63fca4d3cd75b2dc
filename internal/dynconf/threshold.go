package dynconf

import (
	"fmt"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/netem"
)

// ThresholdSchedule builds an offline configuration schedule from a
// forecast trace with a single rule instead of the model-driven search:
// whenever the forecast segment's loss rate is at or above lossBar the
// protective configuration is scheduled, otherwise the stream's own
// (cheap) configuration stays. It needs no trained prediction model, so
// it is the scheduler of choice for demos and for exercising the
// dynamic-run machinery (config switches, timelines, run reports) where
// the interesting part is *that* the configuration changes with the
// network, not *which* change the ANN would have picked.
//
// Only the configuration features (semantics, batch size, poll
// interval, message timeout) of protective are applied; stream keeps
// supplying the workload features. Consecutive identical entries are
// merged, mirroring GenerateSchedule.
func ThresholdSchedule(trace netem.Trace, stream, protective features.Vector, interval time.Duration, lossBar float64) ([]ScheduleEntry, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("dynconf: empty trace")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("dynconf: non-positive interval %v", interval)
	}
	if lossBar <= 0 || lossBar >= 1 {
		return nil, fmt.Errorf("dynconf: loss bar %v outside (0, 1)", lossBar)
	}
	if err := stream.Validate(); err != nil {
		return nil, fmt.Errorf("dynconf: stream: %w", err)
	}
	if err := protective.Validate(); err != nil {
		return nil, fmt.Errorf("dynconf: protective: %w", err)
	}
	end := trace[len(trace)-1].Start + interval
	var out []ScheduleEntry
	for at := time.Duration(0); at < end; at += interval {
		seg, ok := trace.ConditionAt(at)
		if !ok {
			continue
		}
		cur := stream
		if seg.LossRate >= lossBar {
			cur.Semantics = protective.Semantics
			cur.BatchSize = protective.BatchSize
			cur.PollInterval = protective.PollInterval
			cur.MessageTimeout = protective.MessageTimeout
		}
		if len(out) > 0 && sameConfig(out[len(out)-1].Config, cur) {
			continue
		}
		out = append(out, ScheduleEntry{At: at, Config: cur})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dynconf: schedule came out empty")
	}
	return out, nil
}
