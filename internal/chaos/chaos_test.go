package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/transport"
)

func TestValidateRejectsMalformedPlans(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"negative start", Plan{Faults: []Fault{{Kind: ConnReset, At: -time.Millisecond}}}},
		{"bad broker id", Plan{Faults: []Fault{{Kind: BrokerCrash, Broker: 7, Duration: time.Millisecond}}}},
		{"windowless partition", Plan{Faults: []Fault{{Kind: Partition}}}},
		{"loss rate out of range", Plan{Faults: []Fault{{Kind: LossBurst, Duration: time.Millisecond, LossRate: 1.5}}}},
		{"slowdown below 1", Plan{Faults: []Fault{{Kind: BrokerSlow, Duration: time.Millisecond, Slowdown: 0.5}}}},
		{"overlapping loss windows", Plan{Faults: []Fault{
			{Kind: Partition, At: 0, Duration: 10 * time.Millisecond},
			{Kind: LossBurst, At: 5 * time.Millisecond, Duration: 10 * time.Millisecond, LossRate: 0.1},
		}}},
		{"crash while down", Plan{Faults: []Fault{
			{Kind: BrokerCrash, At: 0, Broker: 1},
			{Kind: UncleanRestart, At: time.Millisecond, Broker: 1, Duration: time.Millisecond},
		}}},
		{"recover while up", Plan{Faults: []Fault{{Kind: BrokerRecover, At: 0, Broker: 0}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(3); err == nil {
			t.Errorf("%s: Validate accepted the plan", tc.name)
		}
	}
}

func TestValidateAcceptsDisjointWindows(t *testing.T) {
	plan := Plan{Faults: []Fault{
		{Kind: Partition, At: 0, Duration: 10 * time.Millisecond, Direction: DirForward},
		// Same window, other direction: no conflict.
		{Kind: LossBurst, At: 0, Duration: 10 * time.Millisecond, Direction: DirReverse, LossRate: 0.2},
		{Kind: DelaySpike, At: 0, Duration: 10 * time.Millisecond, DelayMs: 50},
		{Kind: BrokerCrash, At: 5 * time.Millisecond, Duration: 10 * time.Millisecond, Broker: 0},
		{Kind: BrokerCrash, At: 20 * time.Millisecond, Duration: 5 * time.Millisecond, Broker: 0},
		{Kind: ConnReset, At: 7 * time.Millisecond},
		{Kind: BrokerSlow, At: 1 * time.Millisecond, Duration: 2 * time.Millisecond, Broker: 2, Slowdown: 4},
	}}
	if err := plan.Validate(3); err != nil {
		t.Fatalf("Validate rejected a well-formed plan: %v", err)
	}
}

// planEnd is the virtual time the plan's last fault is over.
func planEnd(p Plan) time.Duration {
	var end time.Duration
	for _, f := range p.Faults {
		if e := f.end(); e > end {
			end = e
		}
	}
	return end
}

func TestGeneratePlanDeterministicAndValid(t *testing.T) {
	for _, sem := range []producer.Semantics{producer.AtLeastOnce, producer.ExactlyOnce} {
		cfg := GenConfig{Brokers: 3, Semantics: sem, Horizon: 2 * time.Second, Unclean: sem != producer.ExactlyOnce}
		for seed := uint64(0); seed < 200; seed++ {
			a := GeneratePlan(seed, cfg)
			b := GeneratePlan(seed, cfg)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: generation not deterministic", seed)
			}
			if err := a.Validate(3); err != nil {
				t.Fatalf("seed %d: generated invalid plan: %v\n%s", seed, err, a.Faults)
			}
			if end := planEnd(a); end >= cfg.Horizon {
				t.Fatalf("seed %d: plan extends to %v past horizon %v", seed, end, cfg.Horizon)
			}
			if len(a.Faults) == 0 && seed < 10 {
				continue // occasionally every sampled fault failed to fit; fine
			}
		}
	}
}

func TestGeneratePlanCoversAllKinds(t *testing.T) {
	cfg := GenConfig{Brokers: 3, Unclean: true}
	got := map[Kind]int{}
	for seed := uint64(0); seed < 300; seed++ {
		for _, f := range GeneratePlan(seed, cfg).Faults {
			got[f.Kind]++
		}
	}
	for _, k := range []Kind{BrokerCrash, UncleanRestart, Partition, LossBurst, DelaySpike, ConnReset, BrokerSlow} {
		if got[k] == 0 {
			t.Errorf("300 seeds never produced a %v fault", k)
		}
	}
}

// testRig builds a minimal simulation with every fault target.
func testRig(t *testing.T) (*des.Simulator, Targets) {
	t.Helper()
	sim := des.New()
	path, err := netem.NewPath(sim, netem.Config{Bandwidth: 100e6}, netem.Config{Bandwidth: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.NewConn(sim, path, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	return sim, Targets{
		Sim:      sim,
		Cluster:  clst,
		Path:     path,
		Conn:     conn,
		Timeline: obs.NewTimeline(time.Second),
		OnError:  func(err error) { t.Errorf("injection error: %v", err) },
	}
}

func TestScheduleBrokerCrashWindow(t *testing.T) {
	sim, tg := testRig(t)
	tg.Timeline.BindClock(sim)
	plan := Plan{Faults: []Fault{
		{Kind: BrokerCrash, At: 10 * time.Millisecond, Duration: 20 * time.Millisecond, Broker: 0},
	}}
	if err := Schedule(plan, tg); err != nil {
		t.Fatal(err)
	}
	var duringUp, afterUp bool
	sim.Schedule(15*time.Millisecond, func() { duringUp = tg.Cluster.Broker(0).Up() })
	sim.Schedule(40*time.Millisecond, func() { afterUp = tg.Cluster.Broker(0).Up() })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if duringUp {
		t.Error("broker up inside its crash window")
	}
	if !afterUp {
		t.Error("broker not recovered after its crash window")
	}
	anns := tg.Timeline.Annotations()
	if len(anns) != 2 || anns[0].Detail != "fail broker 0" || anns[1].Detail != "recover broker 0" {
		t.Errorf("annotations = %+v, want fail + recover broker 0", anns)
	}
	for _, a := range anns {
		if a.Kind != obs.AnnBrokerEvent {
			t.Errorf("annotation kind = %q, want %q", a.Kind, obs.AnnBrokerEvent)
		}
	}
}

func TestScheduleUncleanRestartAnnotation(t *testing.T) {
	sim, tg := testRig(t)
	plan := Plan{Faults: []Fault{
		{Kind: UncleanRestart, At: time.Millisecond, Duration: time.Millisecond, Broker: 1},
	}}
	if err := Schedule(plan, tg); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if n := tg.Cluster.Broker(1).Stats().UncleanCrashes; n != 1 {
		t.Errorf("UncleanCrashes = %d, want 1", n)
	}
	anns := tg.Timeline.Annotations()
	if len(anns) != 2 || !strings.Contains(anns[0].Detail, "unclean") {
		t.Errorf("annotations = %+v, want unclean crash + recover", anns)
	}
}

func TestSchedulePartitionWindowDropsPackets(t *testing.T) {
	sim, tg := testRig(t)
	plan := Plan{Faults: []Fault{
		{Kind: Partition, At: 10 * time.Millisecond, Duration: 20 * time.Millisecond, Direction: DirForward},
	}}
	if err := Schedule(plan, tg); err != nil {
		t.Fatal(err)
	}
	var inWindow, afterWindow bool
	sim.Schedule(15*time.Millisecond, func() {
		tg.Path.Fwd.SendFn(100, func(any, bool) { inWindow = true }, nil)
	})
	sim.Schedule(40*time.Millisecond, func() {
		tg.Path.Fwd.SendFn(100, func(any, bool) { afterWindow = true }, nil)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if inWindow {
		t.Error("packet delivered through a severed link")
	}
	if !afterWindow {
		t.Error("packet dropped after the partition healed")
	}
}

func TestScheduleConnReset(t *testing.T) {
	sim, tg := testRig(t)
	plan := Plan{Faults: []Fault{{Kind: ConnReset, At: 5 * time.Millisecond}}}
	if err := Schedule(plan, tg); err != nil {
		t.Fatal(err)
	}
	broken := false
	tg.Conn.Client.OnBroken(func(error) { broken = true })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !broken {
		t.Error("connection not broken by ConnReset fault")
	}
}

func TestScheduleRejectsMissingTargets(t *testing.T) {
	sim := des.New()
	plan := Plan{Faults: []Fault{{Kind: ConnReset, At: 0}}}
	if err := Schedule(plan, Targets{Sim: sim}); err == nil {
		t.Error("Schedule accepted a conn fault with no connection target")
	}
	plan = Plan{Faults: []Fault{{Kind: Partition, At: 0, Duration: time.Millisecond}}}
	if err := Schedule(plan, Targets{Sim: sim}); err == nil {
		t.Error("Schedule accepted a net fault with no path target")
	}
}

func TestGenerateTxnPlanDeterministicAndValid(t *testing.T) {
	cfg := TxnGenConfig{Brokers: 3, Processors: 2, Horizon: 2 * time.Second, Unclean: true}
	for seed := uint64(0); seed < 200; seed++ {
		a := GenerateTxnPlan(seed, cfg)
		b := GenerateTxnPlan(seed, cfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generation not deterministic", seed)
		}
		if err := a.Validate(3); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v\n%s", seed, err, a.Faults)
		}
		if end := planEnd(a); end >= cfg.Horizon {
			t.Fatalf("seed %d: plan extends to %v past horizon %v", seed, end, cfg.Horizon)
		}
		for _, f := range a.Faults {
			switch f.Kind {
			case BrokerCrash, BrokerSlow, UncleanRestart, ProcessorCrash, ProcessorZombie:
			default:
				t.Fatalf("seed %d: txn plan sampled excluded kind %v", seed, f.Kind)
			}
			if f.Kind == ProcessorCrash || f.Kind == ProcessorZombie {
				if f.Member < 0 || int(f.Member) >= cfg.Processors {
					t.Fatalf("seed %d: processor fault targets %d outside fleet of %d", seed, f.Member, cfg.Processors)
				}
			}
		}
	}
}

func TestGenerateTxnPlanCoversAllKinds(t *testing.T) {
	cfg := TxnGenConfig{Unclean: true}
	got := map[Kind]int{}
	for seed := uint64(0); seed < 300; seed++ {
		for _, f := range GenerateTxnPlan(seed, cfg).Faults {
			got[f.Kind]++
		}
	}
	for _, k := range []Kind{BrokerCrash, BrokerSlow, UncleanRestart, ProcessorCrash, ProcessorZombie} {
		if got[k] == 0 {
			t.Errorf("300 seeds never produced a %v fault", k)
		}
	}
}
