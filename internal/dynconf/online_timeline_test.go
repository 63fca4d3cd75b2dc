package dynconf

import (
	"strings"
	"testing"
	"time"

	"kafkarel/internal/kpi"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/testbed"
)

// TestOnlineControllerTimelineAnnotations runs the online loop with a
// timeline attached and pins the observability contract: every
// controller reconfiguration leaves exactly one online_decision
// annotation, consecutive decisions respect MinHold, and each
// annotation carries the estimates the decision was made from.
func TestOnlineControllerTimelineAnnotations(t *testing.T) {
	if testing.Short() {
		t.Skip("online pipeline; skipped in -short")
	}
	spec := netem.TraceSpec{
		Duration:     3 * time.Minute,
		Interval:     10 * time.Second,
		DelayScaleMs: 20,
		DelayShape:   1.5,
		GEGoodToBad:  0.3,
		GEBadToGood:  0.3,
		GoodLoss:     0.005,
		BadLoss:      0.18,
	}
	trace, err := spec.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	base := startVector()
	base.MessageSize = 200
	base.LossRate = 0
	base.DelayMs = 0

	s := searcher(t, kpi.Weights{0.1, 0.1, 0.7, 0.1})
	ctrl, err := NewOnlineController(s, base)
	if err != nil {
		t.Fatal(err)
	}
	const minHold = 20 * time.Second
	ctrl.MinHold = minHold
	tl := obs.NewTimeline(10 * time.Second)
	res, err := testbed.RunOnline(testbed.Experiment{
		Features:   base,
		Messages:   6000,
		Seed:       9,
		Trace:      trace,
		MaxSimTime: spec.Duration,
		Timeline:   tl,
	}, 10*time.Second, ctrl.Control)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Changes() == 0 {
		t.Fatal("online controller never reconfigured")
	}
	if res.Timeline == nil {
		t.Fatal("Result.Timeline is nil")
	}

	var decisions []obs.TimelineAnnotation
	for _, ann := range res.Timeline.Annotations() {
		if ann.Kind == obs.AnnOnlineDecision {
			decisions = append(decisions, ann)
		}
	}
	if len(decisions) != ctrl.Changes() {
		t.Errorf("online_decision annotations = %d, want Changes() = %d", len(decisions), ctrl.Changes())
	}
	for i, d := range decisions {
		if !strings.Contains(d.Detail, "est_loss=") || !strings.Contains(d.Detail, "est_delay_ms=") {
			t.Errorf("decision %d detail %q lacks the probe estimates", i, d.Detail)
		}
		if i > 0 {
			if gap := d.At - decisions[i-1].At; gap < minHold {
				t.Errorf("decisions %d→%d only %v apart, MinHold is %v", i-1, i, gap, minHold)
			}
		}
	}
	// Reaction latency: the first decision can come no earlier than the
	// first probe tick.
	if decisions[0].At < 10*time.Second {
		t.Errorf("first decision at %v, before the first probe interval", decisions[0].At)
	}
	// Timeline rows cover the run: the last sample is at or after the
	// last decision.
	rows := res.Timeline.Rows()
	if len(rows) == 0 {
		t.Fatal("timeline captured no rows")
	}
	if last := rows[len(rows)-1].At; last < decisions[len(decisions)-1].At {
		t.Errorf("last sample %v precedes last decision %v", last, decisions[len(decisions)-1].At)
	}
}
