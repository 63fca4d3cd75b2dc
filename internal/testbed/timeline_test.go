package testbed

import (
	"testing"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
)

func timelineVector() features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        20,
		LossRate:       0.1,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      2,
		MessageTimeout: 800 * time.Millisecond,
	}
}

// TestRunTimelineSumsMatchCounters pins the tentpole invariant on a
// plain static run: summing the timeline's interval deltas reproduces
// the end-of-run counters exactly, including the tail past the last
// ticker sample (collect's final sample).
func TestRunTimelineSumsMatchCounters(t *testing.T) {
	tl := obs.NewTimeline(time.Second)
	res, err := Run(Experiment{
		Features: timelineVector(),
		Messages: 1500,
		Seed:     7,
		Timeline: tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != tl {
		t.Fatal("Result.Timeline does not echo Experiment.Timeline")
	}
	rows := tl.Rows()
	if len(rows) < 3 {
		t.Fatalf("rows = %d, want a multi-interval run", len(rows))
	}
	var acked, lost, segs, retrans, pktsLost, appends uint64
	for _, r := range rows {
		acked += r.Acked
		lost += r.Lost
		segs += r.SegmentsSent
		retrans += r.Retransmits
		pktsLost += r.PktsLost
		appends += r.Appends
	}
	if acked != res.Producer.Delivered {
		t.Errorf("Σ acked = %d, want producer delivered %d", acked, res.Producer.Delivered)
	}
	if lost != res.Producer.Lost {
		t.Errorf("Σ lost = %d, want producer lost %d", lost, res.Producer.Lost)
	}
	if segs != res.Metrics.SegmentsSent {
		t.Errorf("Σ segments = %d, want metrics %d", segs, res.Metrics.SegmentsSent)
	}
	if retrans != res.Metrics.Retransmits {
		t.Errorf("Σ retransmits = %d, want metrics %d", retrans, res.Metrics.Retransmits)
	}
	if want := res.Metrics.PacketsLostRandom + res.Metrics.PacketsLostOverflow; pktsLost != want {
		t.Errorf("Σ packets lost = %d, want metrics %d", pktsLost, want)
	}
	if appends != res.Metrics.BrokerAppends {
		t.Errorf("Σ appends = %d, want metrics %d", appends, res.Metrics.BrokerAppends)
	}
	// Rows are stamped by the virtual clock at the sampling interval.
	for i := 1; i < len(rows)-1; i++ {
		if got := rows[i].At - rows[i-1].At; got != time.Second {
			t.Fatalf("rows %d→%d spaced %v, want the 1s interval", i-1, i, got)
		}
	}
}

// TestRunTimelineWorksWithMetricsDisabled checks the probes do not
// depend on the registry: a DisableMetrics run still yields a usable
// timeline.
func TestRunTimelineWorksWithMetricsDisabled(t *testing.T) {
	tl := obs.NewTimeline(time.Second)
	res, err := Run(Experiment{
		Features:       timelineVector(),
		Messages:       800,
		Seed:           3,
		Timeline:       tl,
		DisableMetrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var acked uint64
	for _, r := range tl.Rows() {
		acked += r.Acked
	}
	if acked != res.Producer.Delivered {
		t.Errorf("Σ acked = %d, want %d with metrics disabled", acked, res.Producer.Delivered)
	}
}

// TestBrokerEventAnnotations checks injected failures land on the
// timeline as broker_event annotations.
func TestBrokerEventAnnotations(t *testing.T) {
	tl := obs.NewTimeline(time.Second)
	v := timelineVector()
	v.LossRate = 0
	_, err := Run(Experiment{
		Features: v,
		Messages: 1500,
		Seed:     5,
		Timeline: tl,
		FaultPlan: chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.BrokerCrash, At: 2 * time.Second, Broker: 1},
			{Kind: chaos.BrokerRecover, At: 4 * time.Second, Broker: 1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, ann := range tl.Annotations() {
		if ann.Kind == obs.AnnBrokerEvent {
			kinds = append(kinds, ann.Detail)
		}
	}
	if len(kinds) != 2 {
		t.Fatalf("broker_event annotations = %v, want fail + recover", kinds)
	}
}
