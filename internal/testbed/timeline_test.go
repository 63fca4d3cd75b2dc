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
// plain static run with a consumer group: summing every count column's
// interval deltas reproduces the end-of-run counter exactly, including
// the tail past the last ticker sample (the run's final sample).
func TestRunTimelineSumsMatchCounters(t *testing.T) {
	tl := obs.NewTimeline(time.Second)
	res, err := Run(Experiment{
		Features:   timelineVector(),
		Messages:   1500,
		Seed:       7,
		Consumers:  2,
		MaxSimTime: time.Minute,
		Timeline:   tl,
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
	var sum obs.TimelineRow
	for _, r := range rows {
		sum.PktsLost += r.PktsLost
		sum.SegmentsSent += r.SegmentsSent
		sum.Retransmits += r.Retransmits
		sum.RTOTimeouts += r.RTOTimeouts
		sum.Enqueued += r.Enqueued
		sum.Acked += r.Acked
		sum.Lost += r.Lost
		sum.BatchRetries += r.BatchRetries
		sum.Appends += r.Appends
		sum.DupAppends += r.DupAppends
		sum.GroupDelivered += r.GroupDelivered
		sum.GroupRedelivered += r.GroupRedelivered
		sum.CommitAcks += r.CommitAcks
		sum.Rebalances += r.Rebalances
	}
	m := res.Metrics
	if len(res.GroupRuns) != 1 || sum.GroupDelivered == 0 || sum.Rebalances == 0 {
		t.Fatalf("groups = %d, Σ delivered = %d, Σ rebalances = %d: want one group that consumed and rebalanced",
			len(res.GroupRuns), sum.GroupDelivered, sum.Rebalances)
	}
	for _, c := range []struct {
		col       string
		got, want uint64
	}{
		{"pkts_lost", sum.PktsLost, m.PacketsLostRandom + m.PacketsLostOverflow},
		{"segs_sent", sum.SegmentsSent, m.SegmentsSent},
		{"retransmits", sum.Retransmits, m.Retransmits},
		{"rto_timeouts", sum.RTOTimeouts, m.RTOTimeouts},
		{"enqueued", sum.Enqueued, m.RecordsEnqueued},
		{"acked", sum.Acked, res.Producer.Delivered},
		{"lost", sum.Lost, res.Producer.Lost},
		{"batch_retries", sum.BatchRetries, m.BatchRetries},
		{"appends", sum.Appends, m.BrokerAppends},
		{"dup_appends", sum.DupAppends, m.BrokerDupAppends},
		{"group_delivered", sum.GroupDelivered, m.ConsumerDelivered},
		{"group_redelivered", sum.GroupRedelivered, m.ConsumerRedelivered},
		{"commit_acks", sum.CommitAcks, m.ConsumerCommitAcks},
		{"rebalances", sum.Rebalances, res.GroupRuns[0].Evidence.Rebalances},
	} {
		if c.got != c.want {
			t.Errorf("Σ %s = %d, want the counter's %d", c.col, c.got, c.want)
		}
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

// TestLagEndIndependentOfTimeline checks Metrics.ConsumerLagEnd is the
// run's own end-of-run backlog, the sum of every group's per-partition
// lag, whether or not a timeline watched the run. The horizon cuts the
// run with a backlog left; with two groups both backlogs count.
func TestLagEndIndependentOfTimeline(t *testing.T) {
	v := features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        5,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      2,
		MessageTimeout: 1500 * time.Millisecond,
	}
	for _, groups := range []int{1, 2} {
		for _, watched := range []bool{false, true} {
			e := Experiment{
				Features:   v,
				Messages:   20000,
				Seed:       3,
				Partitions: 4,
				Consumers:  2,
				Groups:     groups,
				MaxSimTime: 61 * time.Millisecond,
			}
			if watched {
				e.Timeline = obs.NewTimeline(10 * time.Millisecond)
			}
			res, err := Run(e)
			if err != nil {
				t.Fatal(err)
			}
			var lag int64
			for _, gr := range res.GroupRuns {
				for _, l := range gr.Lag {
					lag += l
				}
			}
			if lag == 0 {
				t.Fatalf("groups=%d timeline=%v: the run drained; the horizon must leave a backlog", groups, watched)
			}
			if res.Metrics.ConsumerLagEnd != lag {
				t.Errorf("groups=%d timeline=%v: lag_end = %d, want the groups' summed lag %d",
					groups, watched, res.Metrics.ConsumerLagEnd, lag)
			}
		}
	}
}
