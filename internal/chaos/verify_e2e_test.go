package chaos

import (
	"strings"
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/producer"
	"kafkarel/internal/wire"
)

func TestValidateConsumerCrash(t *testing.T) {
	bad := []struct {
		name string
		plan Plan
	}{
		{"negative member", Plan{Faults: []Fault{{Kind: ConsumerCrash, Member: -1}}}},
		{"crash while down", Plan{Faults: []Fault{
			{Kind: ConsumerCrash, At: 0, Member: 1},
			{Kind: ConsumerCrash, At: time.Millisecond, Member: 1, Duration: time.Millisecond},
		}}},
	}
	for _, tc := range bad {
		if err := tc.plan.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted the plan", tc.name)
		}
	}
	good := Plan{Faults: []Fault{
		{Kind: ConsumerCrash, At: 0, Member: 0, Duration: 50 * time.Millisecond},
		{Kind: ConsumerCrash, At: 60 * time.Millisecond, Member: 0, Duration: 50 * time.Millisecond},
		{Kind: ConsumerCrash, At: 10 * time.Millisecond, Member: 1},
	}}
	if err := good.Validate(3); err != nil {
		t.Fatalf("Validate rejected sequential consumer crashes: %v", err)
	}
	if good.Count(ConsumerCrash) == 0 {
		t.Fatal("no consumer crashes counted with consumer crashes present")
	}
}

func TestGeneratePlanConsumerFaults(t *testing.T) {
	cfg := GenConfig{Brokers: 3, ConsumerMembers: 2}
	seen := 0
	for seed := uint64(0); seed < 200; seed++ {
		plan := GeneratePlan(seed, cfg)
		if err := plan.Validate(3); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		for _, f := range plan.Faults {
			if f.Kind == ConsumerCrash {
				seen++
				if f.Member < 0 || f.Member >= 2 {
					t.Fatalf("seed %d: member %d outside [0,2)", seed, f.Member)
				}
				if f.Duration <= 0 {
					t.Fatalf("seed %d: generated consumer crash without restart", seed)
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("200 seeds never produced a consumer crash")
	}
}

// TestScheduleConsumerCrash: the fault actually kills and restarts a
// live group member, and the group still drains the topic.
func TestScheduleConsumerCrash(t *testing.T) {
	// Twelve and a half rounds of the consumer's 512-record poll per
	// partition: the crash at 10 ms lands mid-stream.
	const perPart = 6400
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("t", 2, 3); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 2; p++ {
		recs := make([]wire.Record, perPart)
		for i := range recs {
			recs[i] = wire.Record{Key: uint64(int(p)*perPart + i + 1)}
		}
		clst.Leader("t", p).Log("t", p).Append(recs)
	}
	co, err := coordinator.New(sim, clst, coordinator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := consumer.NewGroup(sim, co, clst, consumer.GroupConfig{
		Topic: "t", Auto: true, Dedup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetDrainCheck(func() bool { return true })
	for _, name := range []string{"c0", "c1"} {
		if err := g.Join(name); err != nil {
			t.Fatal(err)
		}
	}
	plan := Plan{Faults: []Fault{
		{Kind: ConsumerCrash, At: 10 * time.Millisecond, Duration: 200 * time.Millisecond, Member: 0},
	}}
	err = Schedule(plan, Targets{
		Sim: sim, Cluster: clst, Groups: []*consumer.Group{g},
		OnError: func(err error) { t.Errorf("injection: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	ev := g.Evidence()
	if ev.Crashes != 1 || ev.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", ev.Crashes, ev.Restarts)
	}
	if !ev.Drained {
		t.Fatal("group not drained after crash/restart")
	}
	rep := consumer.ReconcileRangesKeys(
		[]consumer.KeyRange{{Base: 0, Count: perPart}, {Base: perPart, Count: perPart}},
		g.ConsumedKeys())
	if rep.NLost != 0 || rep.NDuplicated != 0 {
		t.Fatalf("lost=%d dup=%d after crash/restart", rep.NLost, rep.NDuplicated)
	}
}

func TestScheduleConsumerCrashNeedsGroupTarget(t *testing.T) {
	sim, tg := testRig(t)
	_ = sim
	plan := Plan{Faults: []Fault{{Kind: ConsumerCrash, At: time.Millisecond, Member: 0}}}
	if err := Schedule(plan, tg); err == nil ||
		!strings.Contains(err.Error(), "no consumer-group target") {
		t.Fatalf("Schedule without group target: err = %v", err)
	}
}

func e2eBase() E2EInput {
	return E2EInput{
		Semantics:          producer.ExactlyOnce,
		OffsetsReplication: 3,
		Evidence: consumer.Evidence{
			Dedup:   true,
			Drained: true,
			Deliveries: []consumer.Delivery{
				{Partition: 0, Offset: 0, Key: 1},
				{Partition: 0, Offset: 1, Key: 2},
				{Partition: 0, Offset: 2, Key: 3},
			},
			CommitAcks: []consumer.CommitAck{
				{Partition: 0, Offset: 2, AfterDeliveries: 2},
				{Partition: 0, Offset: 3, AfterDeliveries: 3},
			},
		},
		ConsumedKeys:   [][]uint64{{1, 2, 3}},
		FinalCommitted: []int64{3},
		AckedKeys:      map[uint64]bool{1: true, 2: true, 3: true},
	}
}

func TestVerifyE2ECleanTrial(t *testing.T) {
	v := VerifyE2E(e2eBase())
	if !v.OK() || len(v.Classified) != 0 {
		t.Fatalf("clean trial flagged: violations=%v classified=%v", v.Violations, v.Classified)
	}
}

func TestVerifyE2ECommitBeyondDelivered(t *testing.T) {
	in := e2eBase()
	// An ack for offset 3 arrives when only 2 deliveries had happened.
	in.Evidence.CommitAcks = []consumer.CommitAck{{Partition: 0, Offset: 3, AfterDeliveries: 2}}
	v := VerifyE2E(in)
	if v.OK() {
		t.Fatal("commit beyond delivered prefix not flagged")
	}
}

func TestVerifyE2EDoubleDeliveryPastCommit(t *testing.T) {
	in := e2eBase()
	in.Evidence.Deliveries = append(in.Evidence.Deliveries,
		consumer.Delivery{Partition: 0, Offset: 1, Key: 2})
	in.Evidence.CommitAcks = []consumer.CommitAck{{Partition: 0, Offset: 2, AfterDeliveries: 2}}
	v := VerifyE2E(in)
	if v.OK() {
		t.Fatal("dedup redelivery past committed watermark not flagged")
	}
}

func TestVerifyE2EFinalCommitUncovered(t *testing.T) {
	in := e2eBase()
	in.Evidence.Deliveries = nil
	in.Evidence.CommitAcks = nil
	in.FinalCommitted = []int64{7} // only 3 records ever delivered
	v := VerifyE2E(in)
	if v.OK() {
		t.Fatal("final committed offset past delivered stream not flagged")
	}
}

func TestVerifyE2ERegressionClassification(t *testing.T) {
	reg := []coordinator.OffsetRegression{{Group: "g", Topic: "t", Partition: 0, Before: 5, After: 2}}
	brokerFaults := Plan{Faults: []Fault{{Kind: UncleanRestart, At: 0, Broker: 0, Duration: time.Millisecond}}}

	// Exactly-once: always a violation.
	in := e2eBase()
	in.Regressions = reg
	in.Plan = brokerFaults
	if v := VerifyE2E(in); v.OK() {
		t.Fatal("regression under exactly-once not a violation")
	}

	// At-least-once, under-replicated offsets topic, broker faults ran:
	// expected anomaly, classified.
	in = e2eBase()
	in.Semantics = producer.AtLeastOnce
	in.Evidence.Dedup = false
	in.OffsetsReplication = 1
	in.Regressions = reg
	in.Plan = brokerFaults
	v := VerifyE2E(in)
	if !v.OK() {
		t.Fatalf("classified regression reported as violation: %v", v.Violations)
	}
	if len(v.Classified) == 0 {
		t.Fatal("expected regression not classified")
	}

	// At-least-once but nothing crashed: a regression is unexplained.
	in.Plan = Plan{}
	if v := VerifyE2E(in); v.OK() {
		t.Fatal("regression with no broker fault not a violation")
	}

	// Replicated offsets topic must not lose commits even under faults.
	in.Plan = brokerFaults
	in.OffsetsReplication = 3
	if v := VerifyE2E(in); v.OK() {
		t.Fatal("regression despite rf=3 offsets topic not a violation")
	}
}

func TestVerifyE2ECoverage(t *testing.T) {
	// Drained group missing an acked key: violation under exactly-once.
	in := e2eBase()
	in.AckedKeys[9] = true
	if v := VerifyE2E(in); v.OK() {
		t.Fatal("missing acked key under exactly-once not a violation")
	}

	// Same gap under at-least-once with a broker outage: classified.
	in = e2eBase()
	in.Semantics = producer.AtLeastOnce
	in.Evidence.Dedup = false
	in.AckedKeys[9] = true
	in.Plan = Plan{Faults: []Fault{{Kind: BrokerCrash, At: 0, Broker: 0, Duration: time.Millisecond}}}
	v := VerifyE2E(in)
	if !v.OK() {
		t.Fatalf("acks=1 loss reported as violation: %v", v.Violations)
	}
	if len(v.Classified) == 0 {
		t.Fatal("acks=1 loss not classified")
	}

	// Undrained group: coverage unknowable, noted not failed.
	in = e2eBase()
	in.Evidence.Drained = false
	in.AckedKeys[9] = true
	v = VerifyE2E(in)
	if !v.OK() {
		t.Fatalf("undrained group reported violations: %v", v.Violations)
	}
	if len(v.Classified) == 0 {
		t.Fatal("undrained group produced no classification note")
	}
}

func TestVerdictMerge(t *testing.T) {
	a := Verdict{Violations: []string{"x"}}
	b := Verdict{Classified: []string{"y"}}
	a.Merge(b)
	if len(a.Violations) != 1 || len(a.Classified) != 1 {
		t.Fatalf("merge lost findings: %+v", a)
	}
}
