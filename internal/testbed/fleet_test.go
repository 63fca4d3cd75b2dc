package testbed

import (
	"bytes"
	"context"
	"testing"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
)

func fleetVector() features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        5,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      2,
		PollInterval:   2 * time.Millisecond,
		MessageTimeout: 2 * time.Second,
	}
}

func smallFleet() Fleet {
	return Fleet{
		Features:          fleetVector(),
		Producers:         9,
		Topics:            3,
		Partitions:        4,
		Messages:          600,
		Seed:              11,
		ConsumersPerTopic: 2,
		TimelineInterval:  time.Second,
	}
}

// TestFleetCleanRun pins the happy path: a clean network delivers every
// message exactly once across all topics, the consumer groups drain
// everything, and every per-producer key range reconciles without
// foreign keys.
func TestFleetCleanRun(t *testing.T) {
	res, err := RunFleet(smallFleet())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("fleet did not complete")
	}
	if res.Acquired != 600 {
		t.Errorf("Acquired = %d, want 600", res.Acquired)
	}
	if res.Pl != 0 || res.Pd != 0 {
		t.Errorf("Pl = %v Pd = %v on a clean network", res.Pl, res.Pd)
	}
	if res.Report.Foreign != 0 {
		t.Errorf("Foreign = %d; key ranges overlap or leak across topics", res.Report.Foreign)
	}
	if res.Report.Distinct != 600 {
		t.Errorf("Distinct = %d, want 600", res.Report.Distinct)
	}
	if len(res.Topics) != 3 {
		t.Fatalf("topics = %d, want 3", len(res.Topics))
	}
	var drained int64
	for _, tr := range res.Topics {
		if tr.Producers != 3 {
			t.Errorf("topic %s has %d producers, want 3", tr.Topic, tr.Producers)
		}
		if !tr.GroupDrained {
			t.Errorf("topic %s: group did not drain cleanly", tr.Topic)
		}
		if tr.E2EViolations != 0 {
			t.Errorf("topic %s: %d e2e violations on a clean run", tr.Topic, tr.E2EViolations)
		}
		drained += tr.Drained
	}
	if drained != 600 {
		t.Errorf("groups drained %d records, want 600", drained)
	}
	// One producer timeline per producer plus one topic timeline per topic.
	if want := 9 + 3; len(res.Timelines) != want {
		t.Fatalf("timelines = %d, want %d", len(res.Timelines), want)
	}
}

// TestFleetScorecardByteIdenticalAcrossWorkers is the fleet determinism
// contract: scorecard and merged timeline CSV bytes must not depend on
// the worker count.
func TestFleetScorecardByteIdenticalAcrossWorkers(t *testing.T) {
	f := smallFleet()
	// A lossy network plus a broker outage makes the shards actually
	// diverge in timing, so identical bytes are meaningful.
	f.Features.LossRate = 0.05
	f.FaultPlan = chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.BrokerCrash, At: 500 * time.Millisecond, Broker: 1},
		{Kind: chaos.BrokerRecover, At: time.Second, Broker: 1},
	}}
	render := func(workers int) ([]byte, []byte) {
		t.Helper()
		res, err := RunFleetContext(context.Background(), f, workers)
		if err != nil {
			t.Fatal(err)
		}
		var csv bytes.Buffer
		if err := obs.WriteMergedCSV(&csv, res.Timelines); err != nil {
			t.Fatal(err)
		}
		return res.Scorecard(), csv.Bytes()
	}
	card1, csv1 := render(1)
	for _, workers := range []int{4, 8} {
		cardN, csvN := render(workers)
		if !bytes.Equal(card1, cardN) {
			t.Errorf("scorecard differs between workers=1 and workers=%d:\n%s\nvs\n%s", workers, card1, cardN)
		}
		if !bytes.Equal(csv1, csvN) {
			t.Errorf("merged timeline CSV differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestFleetTimelineSumsMatchMetrics extends the timeline invariant to
// entities: each column lives on one kind of entity (the client columns
// on the producers', the broker columns on the topics'), so summed over
// every entity it gives the fleet's merged counter.
func TestFleetTimelineSumsMatchMetrics(t *testing.T) {
	f := smallFleet()
	f.Features.LossRate = 0.02
	res, err := RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	var acked, lost, segs, retrans, appends uint64
	for _, tl := range res.Timelines {
		for _, r := range tl.Rows() {
			acked += r.Acked
			lost += r.Lost
			segs += r.SegmentsSent
			retrans += r.Retransmits
			appends += r.Appends
		}
	}
	if acked != res.Producer.Delivered {
		t.Errorf("Σ acked over producer entities = %d, want %d", acked, res.Producer.Delivered)
	}
	if lost != res.Producer.Lost {
		t.Errorf("Σ lost = %d, want %d", lost, res.Producer.Lost)
	}
	if segs != res.Metrics.SegmentsSent {
		t.Errorf("Σ segments = %d, want merged %d", segs, res.Metrics.SegmentsSent)
	}
	if retrans != res.Metrics.Retransmits {
		t.Errorf("Σ retransmits = %d, want merged %d", retrans, res.Metrics.Retransmits)
	}
	if appends != res.Metrics.BrokerAppends {
		t.Errorf("Σ appends over topic entities = %d, want merged %d", appends, res.Metrics.BrokerAppends)
	}
}

// TestFleetValidation covers the rejected shapes.
func TestFleetValidation(t *testing.T) {
	base := smallFleet()
	cases := map[string]func(*Fleet){
		"no producers":       func(f *Fleet) { f.Producers = 0 },
		"no topics":          func(f *Fleet) { f.Topics = 0 },
		"topics > producers": func(f *Fleet) { f.Topics = f.Producers + 1 },
		"no partitions":      func(f *Fleet) { f.Partitions = 0 },
		"messages < fleet":   func(f *Fleet) { f.Messages = f.Producers - 1 },
		"negative users/sec": func(f *Fleet) { f.UsersPerSec = -1 },
		"negative consumers": func(f *Fleet) { f.ConsumersPerTopic = -1 },
		"negative groups":    func(f *Fleet) { f.Groups = -1 },
		"negative horizon":   func(f *Fleet) { f.MaxSimTime = -time.Second },
		"negative timeline":  func(f *Fleet) { f.TimelineInterval = -time.Second },
		"consumer faults need 2 members": func(f *Fleet) {
			f.ConsumerFaults = true
			f.ConsumersPerTopic = 1
		},
		"consumer fault member out of range": func(f *Fleet) {
			f.FaultPlan = chaos.Plan{Faults: []chaos.Fault{
				{Kind: chaos.ConsumerCrash, At: time.Millisecond, Member: 5, Duration: time.Second},
			}}
		},
		"non-broker fault": func(f *Fleet) {
			f.FaultPlan = chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.LossBurst, At: time.Second, Duration: time.Second}}}
		},
		"invalid fault broker": func(f *Fleet) {
			f.FaultPlan = chaos.Plan{Faults: []chaos.Fault{{Kind: chaos.BrokerCrash, At: 0, Broker: 99}}}
		},
	}
	for name, mutate := range cases {
		f := base
		mutate(&f)
		if _, err := RunFleet(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFleetConsumerFaultsDeterministic crashes and restarts group
// members mid-stream in every shard under exactly-once semantics: the
// survivors rebalance and take over, the deduped application stream
// still reconciles with zero loss and zero duplicates, the e2e checker
// stays silent, and the scorecard bytes are worker-count independent.
func TestFleetConsumerFaultsDeterministic(t *testing.T) {
	f := smallFleet()
	f.Features.Semantics = features.SemanticsExactlyOnce
	f.TimelineInterval = 0
	f.ConsumerFaults = true
	render := func(workers int) FleetResult {
		t.Helper()
		res, err := RunFleetContext(context.Background(), f, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := render(1)
	if !res.Completed {
		t.Fatal("fleet did not complete")
	}
	if res.Report.NLost != 0 || res.Report.NDuplicated != 0 {
		t.Errorf("lost=%d dup=%d under consumer crashes with dedup", res.Report.NLost, res.Report.NDuplicated)
	}
	var crashesSeen bool
	for _, tr := range res.Topics {
		if !tr.GroupDrained {
			t.Errorf("topic %s: group did not recover and drain after member crashes", tr.Topic)
		}
		if tr.E2EViolations != 0 {
			t.Errorf("topic %s: %d e2e violations", tr.Topic, tr.E2EViolations)
		}
		if tr.Rebalances > 1 {
			crashesSeen = true
		}
	}
	if !crashesSeen {
		t.Error("no shard rebalanced more than once; consumer faults not injected?")
	}
	card1 := res.Scorecard()
	for _, workers := range []int{4, 8} {
		if cardN := render(workers).Scorecard(); !bytes.Equal(card1, cardN) {
			t.Errorf("scorecard differs between workers=1 and workers=%d:\n%s\nvs\n%s", workers, card1, cardN)
		}
	}
}

// TestFleetUsersPerSecSlowsProducers checks the Sec. IV-C load
// derivation: an aggregate target far below full load must stretch the
// run compared to full-speed polling.
func TestFleetUsersPerSecSlowsProducers(t *testing.T) {
	f := smallFleet()
	f.TimelineInterval = 0
	fast, err := RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	f.UsersPerSec = 200 // 600 msgs at 200/s aggregate ≈ 3 s
	slow, err := RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration <= fast.Duration {
		t.Errorf("users/sec target did not slow the fleet: %v vs %v", slow.Duration, fast.Duration)
	}
	if slow.Duration < 2*time.Second {
		t.Errorf("Duration = %v, want ≈3 s at 200 users/sec", slow.Duration)
	}
	if !slow.Completed || slow.Pl != 0 {
		t.Errorf("throttled fleet: completed=%t Pl=%v", slow.Completed, slow.Pl)
	}
}

// TestFleetAcceptanceScale is the issue's acceptance run: ≥1000
// producers across ≥8 topics and ≥32 partitions with timelines enabled,
// completing with a coherent scorecard.
func TestFleetAcceptanceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet acceptance scale run")
	}
	f := Fleet{
		Features:         fleetVector(),
		Producers:        1000,
		Topics:           8,
		Partitions:       32,
		Messages:         3000,
		Seed:             42,
		TimelineInterval: time.Second,
	}
	res, err := RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("acceptance fleet did not complete")
	}
	if res.Acquired != 3000 || res.Report.Distinct != 3000 {
		t.Errorf("acquired/distinct = %d/%d, want 3000/3000", res.Acquired, res.Report.Distinct)
	}
	if res.Report.Foreign != 0 {
		t.Errorf("Foreign = %d", res.Report.Foreign)
	}
	if want := 1000 + 8; len(res.Timelines) != want {
		t.Errorf("timelines = %d, want %d", len(res.Timelines), want)
	}
	card := res.Scorecard()
	if !bytes.Contains(card, []byte("topic t007 ")) {
		t.Errorf("scorecard missing topic t007:\n%s", card)
	}
}

// A fleet completed only if every shard drained its source before the
// horizon. Three messages over two producers on two topics split 2 + 1,
// and at one user per second each producer polls about every two
// seconds: at a three-second horizon topic t001 has finished and topic
// t000 still owes a message.
func TestFleetCompletedNeedsEveryShard(t *testing.T) {
	f := Fleet{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 10,
			Semantics: features.SemanticsAtLeastOnce, BatchSize: 1,
			MessageTimeout: 500 * time.Millisecond,
		},
		Producers:   2,
		Topics:      2,
		Partitions:  1,
		Messages:    3,
		Seed:        7,
		UsersPerSec: 1,
		MaxSimTime:  3 * time.Second,
	}
	res, err := RunFleet(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquired != 2 || res.Producer.Delivered != 2 {
		t.Fatalf("acquired=%d delivered=%d, want one of t000's two messages and t001's one",
			res.Acquired, res.Producer.Delivered)
	}
	if res.Topics[0].Completed || !res.Topics[1].Completed {
		t.Errorf("topic completion = %t/%t, want false/true", res.Topics[0].Completed, res.Topics[1].Completed)
	}
	if res.Completed {
		t.Error("Completed = true although one shard was cut off mid-source")
	}
	f.MaxSimTime = time.Minute
	if res, err = RunFleet(f); err != nil || !res.Completed || res.Acquired != 3 {
		t.Errorf("with room to finish: completed=%t acquired=%d err=%v", res.Completed, res.Acquired, err)
	}
}
