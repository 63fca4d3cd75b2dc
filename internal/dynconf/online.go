package dynconf

import (
	"fmt"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/testbed"
)

// OnlineController implements the paper's declared future work: dynamic
// configuration WITHOUT a known network forecast. At every probe
// interval it estimates the current network condition from the
// producer's own transport statistics (smoothed RTT → delay,
// retransmission rate → loss), substitutes the estimate into the
// prediction model, and walks the configuration uphill in γ — the same
// stepwise search the offline scheme uses, fed by measurements instead
// of an oracle.
type OnlineController struct {
	searcher *Searcher
	// MinHold is the minimum time between configuration changes
	// (default: no hold) — every change costs coordination overhead
	// (Sec. V).
	MinHold time.Duration

	cur        features.Vector
	estLoss    float64
	estDelayMs float64
	lastChange time.Duration
	changes    int
}

// smoothing is the EWMA coefficient applied to the probe estimates: raw
// per-interval retransmission rates are bursty.
const smoothing = 0.5

// NewOnlineController builds a controller that starts from the given
// configuration.
func NewOnlineController(s *Searcher, start features.Vector) (*OnlineController, error) {
	if s == nil {
		return nil, fmt.Errorf("dynconf: nil searcher")
	}
	if err := start.Validate(); err != nil {
		return nil, fmt.Errorf("dynconf: %w", err)
	}
	return &OnlineController{searcher: s, cur: start}, nil
}

// Changes reports how many reconfigurations the controller issued.
func (c *OnlineController) Changes() int { return c.changes }

// Current returns the configuration the controller believes is active.
func (c *OnlineController) Current() features.Vector { return c.cur }

// Control is the testbed.Controller hook.
func (c *OnlineController) Control(probe testbed.NetworkProbe) (features.Vector, bool) {
	c.estLoss = smoothing*probe.EstLoss + (1-smoothing)*c.estLoss
	c.estDelayMs = smoothing*probe.EstDelayMs + (1-smoothing)*c.estDelayMs

	if c.MinHold > 0 && c.changes > 0 && probe.At-c.lastChange < c.MinHold {
		return features.Vector{}, false
	}

	estimate := c.cur
	estimate.DelayMs = c.estDelayMs
	estimate.LossRate = c.estLoss
	next, _, err := c.searcher.Improve(estimate)
	if err != nil {
		return features.Vector{}, false
	}
	if sameConfig(next, c.cur) {
		return features.Vector{}, false
	}
	// Only the configuration features are applied; M and S stay the
	// stream's own.
	c.cur = withConfig(c.cur, next)
	c.lastChange = probe.At
	c.changes++
	return c.cur, true
}
