package testbed

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
)

// The golden tests pin SHA-256 of canonical renderings for the rig
// configurations no bench fingerprint covers: a multi-group cooperative
// fleet shard under faults, a single run with every optional step
// switched on, and the transactional pipeline. Event construction order
// is part of the result (the simulator breaks time ties by insertion
// sequence), so each configuration deliberately puts sampler ticks,
// fault injections, trace segments and scheduled reconfigurations on
// the same instants. A hash changes only when simulated behaviour does;
// re-pin it in the PR that means to change behaviour and say why.

func goldenCheck(t *testing.T, want string, parts ...[]byte) {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("golden hash = %s, want %s", got, want)
	}
}

func goldenJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mergedCSV(t *testing.T, tls []*obs.Timeline) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteMergedCSV(&b, tls); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func timelineCSV(t *testing.T, tl *obs.Timeline) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteMergedCSV(&b, []*obs.Timeline{tl}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestGoldenFleet(t *testing.T) {
	f := smallFleet()
	f.Features.LossRate = 0.02
	f.Messages = 1800
	f.Seed = 23
	f.ConsumersPerTopic = 3
	f.Groups = 2
	f.Cooperative = true
	f.ConsumerFaults = true
	f.TimelineInterval = 100 * time.Millisecond
	f.MaxSimTime = 30 * time.Second
	// The crash and the recovery land on sampler ticks.
	f.FaultPlan = chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.BrokerCrash, At: 200 * time.Millisecond, Duration: 300 * time.Millisecond, Broker: 1},
	}}
	res, err := RunFleetContext(context.Background(), f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("fleet did not complete")
	}
	var lag bytes.Buffer
	if err := obs.WriteLagCSV(&lag, res.Timelines); err != nil {
		t.Fatal(err)
	}
	goldenCheck(t, "7341609610e1ce99148b0e385e45c79bb3cd4ae967a622b120270e717ae19c4d", res.Scorecard(), mergedCSV(t, res.Timelines), lag.Bytes())
}

// everythingOn is a single run with every optional rig step switched on.
// Trace segments, scheduled reconfigurations, faults, the sampler and the
// brokers' flush boundaries all share the 100 ms grid.
func everythingOn() Experiment {
	v := timelineVector()
	v.LossRate = 0
	v.PollInterval = 2 * time.Millisecond
	next := v
	next.Semantics = features.SemanticsExactlyOnce
	next.BatchSize = 4
	last := next
	last.BatchSize = 1
	return Experiment{
		Features:   v,
		Messages:   1200,
		Seed:       24,
		Partitions: 3,
		Trace: netem.Trace{
			{Start: 0, DelayMs: 10, LossRate: 0.02},
			{Start: 500 * time.Millisecond, DelayMs: 40, LossRate: 0.1},
			{Start: time.Second, DelayMs: 5, LossRate: 0},
			{Start: 2 * time.Second, DelayMs: 25, LossRate: 0.05},
		},
		Schedule: []ConfigChange{
			{At: 500 * time.Millisecond, Features: next},
			{At: 2 * time.Second, Features: last},
		},
		FaultPlan: chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.BrokerCrash, At: 500 * time.Millisecond, Duration: 500 * time.Millisecond, Broker: 0},
			{Kind: chaos.LossBurst, At: 300 * time.Millisecond, Duration: 200 * time.Millisecond, LossRate: 0.3},
			{Kind: chaos.ConnReset, At: time.Second},
			{Kind: chaos.ConsumerCrash, At: 500 * time.Millisecond, Duration: 500 * time.Millisecond, Member: 1},
			{Kind: chaos.BrokerSlow, At: 2 * time.Second, Duration: 300 * time.Millisecond, Broker: 2, Slowdown: 4},
		}},
		BrokerFlushInterval: 100 * time.Millisecond,
		MaxSimTime:          10 * time.Minute,
		Consumers:           2,
		CaptureEvidence:     true,
		Timeline:            obs.NewTimeline(100 * time.Millisecond),
	}
}

func TestGoldenEverythingOn(t *testing.T) {
	// One request in flight: the hash was captured before a connection
	// reset under pipelining was deterministic (next test).
	e := everythingOn()
	e.MaxInFlight = 1
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.GroupEvidence.Drained {
		t.Fatalf("completed=%t drained=%t", res.Completed, res.GroupEvidence.Drained)
	}
	// The hash predates the deletion of coordinator.GroupStats.StaticRejoins,
	// which no run could make non-zero. Its key is spliced back where it
	// sat, so the pin itself is unedited and every other byte is still held.
	groupRuns := bytes.ReplaceAll(goldenJSON(t, res.GroupRuns),
		[]byte(`,"CoopFollowUps":`), []byte(`,"StaticRejoins":0,"CoopFollowUps":`))
	goldenCheck(t, "3e4e8d78df29cfb166d4ff09e9e750ac32ad806089bb2acb05a628819b39c160",
		res.Metrics.Encode(), goldenJSON(t, res.ConsumedKeys), groupRuns,
		timelineCSV(t, res.Timeline))
}

// A connection reset with several requests in flight fails them in send
// order, never in map-iteration order: each failure schedules a retry,
// so the order decides the rest of the run.
func TestConnResetUnderPipeliningIsDeterministic(t *testing.T) {
	var ref []byte
	for i := 0; i < 8; i++ {
		res, err := Run(everythingOn())
		if err != nil {
			t.Fatal(err)
		}
		got := append(res.Metrics.Encode(), goldenJSON(t, res.ConsumedKeys)...)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Fatalf("run %d differs from run 0 on identical input", i)
		}
	}
}

func TestGoldenTxn(t *testing.T) {
	plan := chaos.GenerateTxnPlan(35, chaos.TxnGenConfig{Horizon: 2 * time.Second, MaxFaults: 6, Unclean: true})
	if len(plan.Faults) < 5 {
		t.Fatalf("generated plan has only %d faults", len(plan.Faults))
	}
	res, err := RunTxn(TxnExperiment{
		Seed:                35,
		Messages:            400,
		AbortEvery:          4,
		BrokerFlushInterval: 50 * time.Millisecond,
		MaxSimTime:          12 * time.Second,
		FaultPlan:           plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("pipeline did not complete")
	}
	goldenCheck(t, "5a15f97d0d0d742ae40c66a62d4fbbf723d06db395fb5f9e7b09ebaa6502630a", goldenJSON(t, res))
}
