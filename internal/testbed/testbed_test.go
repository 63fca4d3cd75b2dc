package testbed

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
)

var exploreFlag = flag.Bool("explore", false, "run the manual calibration exploration")

func cleanVector() features.Vector {
	return features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      1,
		PollInterval:   50 * time.Millisecond,
		MessageTimeout: 2 * time.Second,
	}
}

func TestRunCleanNetwork(t *testing.T) {
	res, err := Run(Experiment{Features: cleanVector(), Messages: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("experiment did not complete")
	}
	if res.Pl > 0.01 || res.Pd > 0.01 {
		t.Errorf("clean network Pl=%v Pd=%v", res.Pl, res.Pd)
	}
	if res.Acquired != 500 {
		t.Errorf("acquired = %d", res.Acquired)
	}
	if res.Throughput <= 0 || res.Duration <= 0 {
		t.Errorf("throughput=%v duration=%v", res.Throughput, res.Duration)
	}
	if res.BandwidthUtilization <= 0 || res.BandwidthUtilization > 1 {
		t.Errorf("phi = %v", res.BandwidthUtilization)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Experiment{Messages: 10}); err == nil {
		t.Error("zero-value features accepted")
	}
	if _, err := Run(Experiment{Features: cleanVector()}); err == nil {
		t.Error("zero messages accepted")
	}
	bad := Experiment{Features: cleanVector(), Messages: 10}
	bad.Calibration = DefaultCalibration()
	bad.Calibration.Jitter = 2
	if _, err := Run(bad); err == nil {
		t.Error("bad calibration accepted")
	}
}

// TestRunRejectsHostileConfiguration mutates one field of a valid
// experiment per row. Unchecked, each row would run degraded with no
// error: a negative override silently takes its default, MinISR above
// the replication factor fails every acks=all produce, and a batch no
// frame can carry loses every message. Every row must be rejected
// before the run starts: a schedule entry at a negative time panics in
// des, and one with invalid features would fail only once it fires.
func TestRunRejectsHostileConfiguration(t *testing.T) {
	valid := Experiment{Features: cleanVector(), Messages: 20, Seed: 1, MaxSimTime: time.Minute}
	if _, err := Run(valid); err != nil {
		t.Fatalf("the unmutated experiment fails: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Experiment)
	}{
		{"negative MaxInFlight", func(e *Experiment) { e.MaxInFlight = -1 }},
		{"negative RequestTimeout", func(e *Experiment) { e.RequestTimeout = -1 }},
		{"negative RetryBackoff", func(e *Experiment) { e.RetryBackoff = -time.Second }},
		{"negative RetryBackoffMax", func(e *Experiment) { e.RetryBackoffMax = -time.Second }},
		{"negative QueueLimit", func(e *Experiment) { e.QueueLimit = -1 }},
		{"negative MaxRetries", func(e *Experiment) { e.MaxRetries = -1 }},
		{"negative Partitions", func(e *Experiment) { e.Partitions = -1 }},
		{"negative ReplicationFactor", func(e *Experiment) { e.ReplicationFactor = -1 }},
		{"negative MinISR", func(e *Experiment) { e.MinISR = -1 }},
		{"negative Consumers", func(e *Experiment) { e.Consumers = -1 }},
		{"negative Groups", func(e *Experiment) { e.Groups = -1 }},
		{"negative OffsetsReplication", func(e *Experiment) { e.OffsetsReplication = -1 }},
		{"negative MaxSimTime", func(e *Experiment) { e.MaxSimTime = -time.Second }},
		{"MinISR above RF", func(e *Experiment) { e.MinISR = 4 }},
		{"MinISR above explicit RF", func(e *Experiment) { e.ReplicationFactor, e.MinISR = 1, 2 }},
		{"NaN LossRate", func(e *Experiment) { e.Features.LossRate = math.NaN() }},
		{"infinite DelayMs", func(e *Experiment) { e.Features.DelayMs = math.Inf(1) }},
		{"NaN DelayMs", func(e *Experiment) { e.Features.DelayMs = math.NaN() }},
		{"message larger than a frame", func(e *Experiment) { e.Features.MessageSize = 100_000_000 }},
		{"batch larger than a frame", func(e *Experiment) {
			e.Features.MessageSize, e.Features.BatchSize = 2_000_000, 10
		}},
		{"scheduled batch larger than a frame", func(e *Experiment) {
			v := e.Features
			v.BatchSize = 100_000
			e.Schedule = []ConfigChange{{At: time.Second, Features: v}}
		}},
		{"schedule entry at negative time", func(e *Experiment) {
			e.Schedule = []ConfigChange{{At: -time.Second, Features: e.Features}}
		}},
		{"scheduled zero message timeout", func(e *Experiment) {
			v := e.Features
			v.MessageTimeout = 0
			e.Schedule = []ConfigChange{{At: time.Second, Features: v}}
		}},
		{"scheduled negative poll interval", func(e *Experiment) {
			v := e.Features
			v.PollInterval = -time.Millisecond
			e.Schedule = []ConfigChange{{At: time.Second, Features: v}}
		}},
		{"scheduled zero batch size", func(e *Experiment) {
			v := e.Features
			v.BatchSize = 0
			e.Schedule = []ConfigChange{{At: time.Second, Features: v}}
		}},
		{"second schedule entry invalid", func(e *Experiment) {
			v := e.Features
			v.MessageTimeout = 0
			e.Schedule = []ConfigChange{{At: time.Second, Features: e.Features}, {At: 2 * time.Second, Features: v}}
		}},
	} {
		e := valid
		tc.mutate(&e)
		_, err := Run(e)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if e.validate() == nil {
			t.Errorf("%s: rejected only once the run was under way: %v", tc.name, err)
			continue
		}
		t.Logf("%s: %v", tc.name, err)
	}
}

// TestEntryPointsRejectHostileConfiguration holds the fleet and
// transactional entry points to the topic and override rules Run
// enforces. Unchecked, each row runs with no error: a negative override
// silently takes its default, a partition count far past the cap only
// burns host time, and a message no frame can carry is lost whole.
func TestEntryPointsRejectHostileConfiguration(t *testing.T) {
	fleet := Fleet{Features: cleanVector(), Producers: 2, Topics: 1, Partitions: 1, Messages: 20, Seed: 1, MaxSimTime: time.Minute}
	txn := TxnExperiment{Seed: 1, Messages: 20}
	if _, err := RunFleet(fleet); err != nil {
		t.Fatalf("the unmutated fleet fails: %v", err)
	}
	if _, err := RunTxn(txn); err != nil {
		t.Fatalf("the unmutated transactional run fails: %v", err)
	}
	runFleet := func(mutate func(*Fleet)) func() error {
		return func() error {
			f := fleet
			mutate(&f)
			_, err := RunFleet(f)
			return err
		}
	}
	runTxn := func(mutate func(*TxnExperiment)) func() error {
		return func() error {
			e := txn
			mutate(&e)
			_, err := RunTxn(e)
			return err
		}
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Run partitions above the cap", func() error {
			_, err := Run(Experiment{Features: cleanVector(), Messages: 20, Seed: 1, Partitions: maxPartitions + 1})
			return err
		}},
		{"fleet message larger than a frame", runFleet(func(f *Fleet) { f.Features.MessageSize = 100_000_000 })},
		{"fleet batch larger than a frame", runFleet(func(f *Fleet) {
			f.Features.MessageSize, f.Features.BatchSize = 2_000_000, 10
		})},
		{"fleet partitions above the cap", runFleet(func(f *Fleet) { f.Partitions = maxPartitions + 1 })},
		{"txn negative Partitions", runTxn(func(e *TxnExperiment) { e.Partitions = -1 })},
		{"txn partitions above the cap", runTxn(func(e *TxnExperiment) { e.Partitions = maxPartitions + 1 })},
		{"txn negative BatchSize", runTxn(func(e *TxnExperiment) { e.BatchSize = -3 })},
		{"txn negative AbortEvery", runTxn(func(e *TxnExperiment) { e.AbortEvery = -1 })},
		{"txn negative ReplicationFactor", runTxn(func(e *TxnExperiment) { e.ReplicationFactor = -1 })},
		{"txn negative TxnTimeout", runTxn(func(e *TxnExperiment) { e.TxnTimeout = -time.Second })},
		{"txn negative MaxSimTime", runTxn(func(e *TxnExperiment) { e.MaxSimTime = -time.Second })},
	} {
		err := tc.run()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		t.Logf("%s: %v", tc.name, err)
	}
}

// TestRunAllMatchesSequentialRuns holds the batch runner to a plain loop
// of Run at every worker count, and to an error that names the failing
// experiment.
func TestRunAllMatchesSequentialRuns(t *testing.T) {
	var exps []Experiment
	for i := 0; i < 6; i++ {
		v := cleanVector()
		v.LossRate = 0.05 * float64(i)
		v.DelayMs = 20
		v.PollInterval = 0
		v.MessageTimeout = time.Second
		exps = append(exps, Experiment{Features: v, Messages: 150, Seed: uint64(40 + i)})
	}
	var want []Result
	for _, e := range exps {
		res, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	for _, workers := range []int{1, 4, 8} {
		got, err := RunAll(context.Background(), exps, exprun.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: results differ from sequential Run", workers)
		}
	}

	bad := slices.Clone(exps)
	bad[3].Partitions = -1
	_, err := RunAll(context.Background(), bad, exprun.Options{Workers: 1})
	if err == nil {
		t.Fatal("a batch with a failing experiment succeeded")
	}
	for _, part := range []string{"experiment 3 ", fmt.Sprintf("%+v", bad[3].Features), "seed 43", "negative Partitions"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q lacks %q", err, part)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	e := Experiment{Features: cleanVector(), Messages: 400, Seed: 9}
	e.Features.LossRate = 0.15
	e.Features.DelayMs = 20
	e.Features.MessageTimeout = time.Second
	a, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pl != b.Pl || a.Pd != b.Pd || a.Duration != b.Duration {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := Run(Experiment{Features: e.Features, Messages: 400, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c.Duration == a.Duration && c.Pl == a.Pl && c.Report.Distinct == a.Report.Distinct {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

// TestRunWithConsumers runs a two-member group through the coordinator
// alongside the producer: the group must drain the topic, commit every
// partition durably, and report its evidence on the Result.
func TestRunWithConsumers(t *testing.T) {
	e := Experiment{
		Features:        cleanVector(),
		Messages:        300,
		Seed:            3,
		Partitions:      4,
		Consumers:       2,
		CaptureEvidence: true,
		MaxSimTime:      5 * time.Minute,
	}
	if _, err := Run(Experiment{Features: cleanVector(), Messages: 10, Consumers: 1}); err == nil {
		t.Error("Consumers without MaxSimTime accepted")
	}
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.GroupEvidence == nil || res.Coordinator == nil {
		t.Fatal("group evidence or coordinator stats missing from Result")
	}
	if !res.GroupEvidence.Drained {
		t.Errorf("group did not drain cleanly: %+v", *res.GroupEvidence)
	}
	var consumed int64
	for _, keys := range res.GroupConsumedKeys {
		consumed += int64(len(keys))
	}
	if consumed != int64(res.Acquired) {
		t.Errorf("group consumed %d of %d acquired records", consumed, res.Acquired)
	}
	var committed int64
	for p, off := range res.GroupCommitted {
		if off < 0 {
			t.Errorf("partition %d: nothing committed", p)
			continue
		}
		committed += off
	}
	if committed != consumed {
		t.Errorf("committed offsets sum to %d, want %d (everything consumed)", committed, consumed)
	}
	if res.Coordinator.Commits == 0 {
		t.Error("coordinator saw no commits")
	}
	if len(res.OffsetRegressions) != 0 {
		t.Errorf("offset regressions on a clean run: %v", res.OffsetRegressions)
	}
}

func TestMaxSimTimeCutsRun(t *testing.T) {
	e := Experiment{Features: cleanVector(), Messages: 1_000_000, Seed: 2,
		MaxSimTime: 2 * time.Second}
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("million-message run completed in 2 simulated seconds?")
	}
	if res.Acquired == 0 || res.Acquired >= 1_000_000 {
		t.Errorf("acquired = %d", res.Acquired)
	}
	if res.Duration != 2*time.Second {
		t.Errorf("duration = %v", res.Duration)
	}
}

func TestCalibrationValidate(t *testing.T) {
	if err := DefaultCalibration().Validate(); err != nil {
		t.Errorf("default calibration invalid: %v", err)
	}
	mut := func(f func(*Calibration)) Calibration {
		c := DefaultCalibration()
		f(&c)
		return c
	}
	bad := []Calibration{
		mut(func(c *Calibration) { c.IOCoeffMicros = 0 }),
		mut(func(c *Calibration) { c.SerFactor = 0 }),
		mut(func(c *Calibration) { c.Jitter = 1 }),
		mut(func(c *Calibration) { c.StallProb = -1 }),
		mut(func(c *Calibration) { c.StallMaxMs = c.StallMinMs - 1 }),
		mut(func(c *Calibration) { c.SocketBuffer = 0 }),
		mut(func(c *Calibration) { c.Bandwidth = 0 }),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad calibration %d accepted", i)
		}
	}
}

func TestFullLoadRateDecreasesWithSize(t *testing.T) {
	cal := DefaultCalibration()
	prev := cal.FullLoadRate(50)
	for _, m := range []int{100, 200, 500, 1000} {
		r := cal.FullLoadRate(m)
		if r >= prev {
			t.Errorf("FullLoadRate(%d) = %v did not decrease", m, r)
		}
		prev = r
	}
}

func TestMultiPartitionRun(t *testing.T) {
	v := cleanVector()
	e := Experiment{Features: v, Messages: 600, Seed: 6, Partitions: 3}
	res, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Pl != 0 || res.Pd != 0 {
		t.Fatalf("multi-partition run: %+v", res)
	}
	if res.Report.Distinct != 600 {
		t.Errorf("distinct = %d", res.Report.Distinct)
	}
}

func TestMultiPartitionSpreadsLoad(t *testing.T) {
	// With round-robin batching, records land on every partition; verify
	// by checking the three leaders' logs through a direct run of the
	// rig (reconciliation already proves completeness above).
	v := cleanVector()
	v.BatchSize = 2
	sim := des.New()
	r, err := Experiment{Features: v, Messages: 300, Seed: 7, Partitions: 3}.assemble(sim)
	if err != nil {
		t.Fatal(err)
	}
	r.start()
	if err := sim.RunLimit(10_000_000); err != nil {
		t.Fatal(err)
	}
	for p := int32(0); p < 3; p++ {
		leader := r.clst.Leader("stream", p)
		if leader == nil {
			t.Fatalf("partition %d leaderless", p)
		}
		if leader.Log("stream", p).End() == 0 {
			t.Errorf("partition %d received no records", p)
		}
	}
}

// Property: across random feature vectors, the accounting invariants
// hold and identical seeds give identical results.
func TestPropertyExperimentInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("property experiments; skipped in -short")
	}
	f := func(seed uint64, mRaw, lRaw, bRaw, semRaw, toRaw uint8) bool {
		v := features.Vector{
			MessageSize:    50 + int(mRaw)*4, // 50..1070 B
			Timeliness:     5 * time.Second,
			DelayMs:        float64(lRaw % 120),    // 0..119 ms
			LossRate:       float64(lRaw%26) / 100, // 0..25 %
			Semantics:      int(semRaw%2) + 1,      // amo / alo
			BatchSize:      int(bRaw%10) + 1,       // 1..10
			PollInterval:   time.Duration(bRaw%4) * 25 * time.Millisecond,
			MessageTimeout: time.Duration(500+int(toRaw)*8) * time.Millisecond,
		}
		e := Experiment{Features: v, Messages: 150, Seed: seed,
			MaxSimTime: 10 * time.Minute}
		a, err := Run(e)
		if err != nil {
			t.Logf("run error: %v (%+v)", err, v)
			return false
		}
		// Accounting: producer terminals and consumer view balance.
		if a.Producer.Delivered+a.Producer.Lost != a.Producer.Total {
			return false
		}
		if a.Report.Distinct+a.Report.NLost != a.Acquired {
			return false
		}
		if a.Report.Foreign != 0 {
			return false
		}
		if a.Pl < 0 || a.Pl > 1 || a.Pd < 0 || a.Pd > 1 {
			return false
		}
		// Determinism.
		b, err := Run(e)
		if err != nil {
			return false
		}
		return a.Pl == b.Pl && a.Pd == b.Pd && a.Duration == b.Duration
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// A single run's MetricsSnapshot must be byte-identical run to run for
// a fixed seed — the determinism contract extended to the observability
// layer, with a faulted at-least-once configuration that exercises
// retries, retransmits and RTO backoff.
func TestMetricsSnapshotDeterministic(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 40,
			LossRate: 0.12, Semantics: features.SemanticsAtLeastOnce,
			BatchSize: 2, MessageTimeout: 1500 * time.Millisecond,
		},
		Messages: 400,
		Seed:     11,
	}
	ref, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Metrics.Retransmits == 0 || ref.Metrics.RTOMax == 0 {
		t.Errorf("faulted run shows no transport recovery activity: %s", ref.Metrics.Encode())
	}
	for i := 0; i < 2; i++ {
		got, err := Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Metrics.Encode(), ref.Metrics.Encode()) {
			t.Fatalf("rerun %d: metrics not byte-identical:\n%s\nvs\n%s",
				i, got.Metrics.Encode(), ref.Metrics.Encode())
		}
	}
}

// DisableMetrics must leave Result.Metrics zero while the reliability
// results stay identical to an instrumented run.
func TestDisableMetrics(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 10,
			LossRate: 0.05, Semantics: features.SemanticsAtLeastOnce,
			BatchSize: 1, MessageTimeout: 1 * time.Second,
		},
		Messages: 200,
		Seed:     3,
	}
	on, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	e.DisableMetrics = true
	off, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if off.Metrics != (MetricsSnapshot{}) {
		t.Errorf("disabled run returned metrics: %s", off.Metrics.Encode())
	}
	if on.Pl != off.Pl || on.Pd != off.Pd || on.Report != off.Report || on.Duration != off.Duration {
		t.Errorf("metrics toggle changed results: on={Pl %v Pd %v} off={Pl %v Pd %v}",
			on.Pl, on.Pd, off.Pl, off.Pd)
	}
}

// A traced run must produce the same results as an untraced one while
// capturing the event stream.
func TestTracerNeutrality(t *testing.T) {
	e := Experiment{
		Features: features.Vector{
			MessageSize: 200, Timeliness: 5 * time.Second, DelayMs: 10,
			LossRate: 0.05, Semantics: features.SemanticsAtLeastOnce,
			BatchSize: 1, MessageTimeout: 1 * time.Second,
		},
		Messages: 200,
		Seed:     3,
	}
	plain, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	e.Tracer = obs.NewTracer(1 << 16)
	traced, err := Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Pl != plain.Pl || traced.Pd != plain.Pd || traced.Metrics != plain.Metrics {
		t.Error("attaching a tracer changed run results")
	}
	if e.Tracer.Total() == 0 {
		t.Error("tracer captured no events")
	}
	evs := e.Tracer.Events()
	sawEnqueue, sawSend := false, false
	for _, ev := range evs {
		switch ev.Type {
		case obs.EvRecordEnqueue:
			sawEnqueue = true
		case obs.EvSegmentSend:
			sawSend = true
		}
		if ev.At < 0 {
			t.Fatalf("event with negative timestamp: %+v", ev)
		}
	}
	if !sawEnqueue || !sawSend {
		t.Errorf("trace missing lifecycle events (enqueue=%v send=%v)", sawEnqueue, sawSend)
	}
}

// MetricsSnapshot.Merge holds the one merge policy for a fleet's shards.
// Each row builds three shard snapshots from registries, the way a
// fleet shard does, and checks that the fold is associative, that
// counters and span histograms add (a quantile of the merge is the
// quantile of the pooled observations), that the high-water marks take
// the maximum, and that the end-of-run lag adds, so drained shards fold
// to 0.
func TestMetricsSnapshotMerge(t *testing.T) {
	type shard struct {
		retransmits     uint64
		rtoMax          time.Duration
		rf              int64
		lagPeak, lagEnd int64
		spans           int // delivery-span observations
	}
	cases := []struct {
		name     string
		shards   [3]shard
		wantRTO  time.Duration
		wantRF   int64
		wantLag  int64
		wantSpan uint64
	}{
		{
			name: "drained shards fold to zero lag",
			shards: [3]shard{
				{retransmits: 10, rtoMax: 4 * time.Millisecond, rf: 3, lagPeak: 50, spans: 100},
				{retransmits: 20, rtoMax: 9 * time.Millisecond, rf: 3, lagPeak: 20, spans: 150},
				{retransmits: 30, rtoMax: time.Millisecond, rf: 3, lagPeak: 80, spans: 200},
			},
			wantRTO: 9 * time.Millisecond, wantRF: 3, wantLag: 0, wantSpan: 450,
		},
		{
			name: "backlogs add and high-water marks take the max",
			shards: [3]shard{
				{retransmits: 1, rf: 1, lagPeak: 9, lagEnd: 5, spans: 40},
				{retransmits: 2, rtoMax: 2 * time.Millisecond, rf: 3, lagEnd: 0, spans: 1},
				{retransmits: 3, rf: 2, lagPeak: 7, lagEnd: 7, spans: 300},
			},
			wantRTO: 2 * time.Millisecond, wantRF: 3, wantLag: 12, wantSpan: 341,
		},
		{
			name: "an idle shard is the identity",
			shards: [3]shard{
				{retransmits: 6, rtoMax: 3 * time.Millisecond, rf: 3, lagEnd: 4, spans: 250},
				{},
				{retransmits: 1, rf: 3, spans: 2},
			},
			wantRTO: 3 * time.Millisecond, wantRF: 3, wantLag: 4, wantSpan: 252,
		},
	}
	rng := rand.New(rand.NewPCG(7, 1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pooled := obs.NewRegistry()
			var snaps [3]MetricsSnapshot
			var wantRetransmits uint64
			for i, sh := range tc.shards {
				reg := obs.NewRegistry()
				if sh == (shard{}) {
					snaps[i] = snapshotMetrics(reg.Snapshot())
					continue
				}
				reg.Counter(obs.MRetransmits).Add(sh.retransmits)
				reg.Gauge(obs.MRTOMaxNs).SetMax(int64(sh.rtoMax))
				reg.Gauge(obs.MReplicationFactor).Set(sh.rf)
				lag := reg.Gauge(obs.MConsumerLag)
				lag.Set(sh.lagPeak)
				lag.Set(sh.lagEnd)
				h := reg.Histogram(obs.MSpanDelivery, obs.LatencyBounds)
				hp := pooled.Histogram(obs.MSpanDelivery, obs.LatencyBounds)
				for k := 0; k < sh.spans; k++ {
					// Log-uniform over [1 ns, 120 s]: every bucket,
					// overflow included.
					v := int64(math.Exp(rng.Float64() * math.Log(1.2e11)))
					h.Observe(v)
					hp.Observe(v)
				}
				snaps[i] = snapshotMetrics(reg.Snapshot())
				wantRetransmits += sh.retransmits
			}

			left := snaps[0]
			left.Merge(snaps[1])
			left.Merge(snaps[2])
			bc := snaps[1]
			bc.Merge(snaps[2])
			right := snaps[0]
			right.Merge(bc)
			if left != right {
				t.Fatalf("merge not associative:\n%s\nvs\n%s", left.Encode(), right.Encode())
			}

			if left.Retransmits != wantRetransmits {
				t.Errorf("retransmits = %d, want %d", left.Retransmits, wantRetransmits)
			}
			if left.RTOMax != tc.wantRTO || left.ReplicationFactor != tc.wantRF {
				t.Errorf("rto_max = %v rf = %d, want the maxima %v and %d",
					left.RTOMax, left.ReplicationFactor, tc.wantRTO, tc.wantRF)
			}
			if left.ConsumerLagEnd != tc.wantLag {
				t.Errorf("lag_end = %d, want the sum %d", left.ConsumerLagEnd, tc.wantLag)
			}
			all := snapshotMetrics(pooled.Snapshot()).SpanDelivery
			if got := left.SpanDelivery.Total(); got != tc.wantSpan || left.SpanDelivery != all {
				t.Errorf("merged delivery span (total %d) != pooled observations (total %d, want %d)",
					got, all.Total(), tc.wantSpan)
			}
			for _, q := range []float64{0.50, 0.95, 0.99, 1} {
				if got, want := left.SpanDelivery.Quantile(q), all.Quantile(q); got != want {
					t.Errorf("merged Quantile(%v) = %v, pooled %v", q, got, want)
				}
			}
		})
	}
}
