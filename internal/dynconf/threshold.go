package dynconf

import (
	"fmt"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/testbed"
)

// ThresholdSchedule builds an offline configuration schedule from a
// forecast trace with a single rule instead of the model-driven search:
// whenever the forecast segment's loss rate is at or above lossBar the
// protective configuration is scheduled, otherwise the stream's own
// (cheap) configuration stays. It needs no trained prediction model, so
// it is the scheduler of choice for demos and for exercising the
// dynamic-run machinery (config switches, timelines, run reports) where
// the interesting part is *that* the configuration changes with the
// network, not *which* change the predictor would have picked.
//
// Only the configuration features (semantics, batch size, poll
// interval, message timeout) of protective are applied; stream keeps
// supplying the workload features. It shares GenerateSchedule's
// checkpoint loop and merge rule.
func ThresholdSchedule(trace netem.Trace, stream, protective features.Vector, interval time.Duration, lossBar float64) ([]testbed.ConfigChange, error) {
	if lossBar <= 0 || lossBar >= 1 {
		return nil, fmt.Errorf("dynconf: loss bar %v outside (0, 1)", lossBar)
	}
	if err := protective.Validate(); err != nil {
		return nil, fmt.Errorf("dynconf: protective: %w", err)
	}
	return schedule(trace, stream, interval, func(_ features.Vector, seg netem.Segment) (features.Vector, error) {
		if seg.LossRate >= lossBar {
			return protective, nil
		}
		return stream, nil
	})
}
