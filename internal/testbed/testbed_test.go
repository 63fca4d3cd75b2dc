package testbed

import (
	"flag"

	"kafkarel/internal/des"
	"testing"
	"testing/quick"
	"time"

	"kafkarel/internal/features"
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
