package dynconf

import (
	"testing"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/kpi"
	"kafkarel/internal/netem"
	"kafkarel/internal/testbed"
)

func TestOnlineControllerValidation(t *testing.T) {
	s := searcher(t, kpi.DefaultWeights())
	if _, err := NewOnlineController(nil, startVector()); err == nil {
		t.Error("nil searcher accepted")
	}
	if _, err := NewOnlineController(s, features.Vector{}); err == nil {
		t.Error("invalid start accepted")
	}
}

func TestOnlineControllerReactsToLossEstimates(t *testing.T) {
	s := searcher(t, kpi.Weights{0.1, 0.1, 0.7, 0.1})
	start := startVector()
	start.LossRate = 0 // the controller must discover loss from probes
	ctrl, err := NewOnlineController(s, start)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.MinHold = 0

	// Calm probe: little to fix.
	_, _ = ctrl.Control(testbed.NetworkProbe{At: time.Second, EstDelayMs: 10, EstLoss: 0})
	calmCfg := ctrl.Current()

	// A run of lossy probes drives the EWMA up; the controller must move
	// towards a protective configuration.
	changed := false
	for i := 0; i < 6; i++ {
		_, ok := ctrl.Control(testbed.NetworkProbe{
			At:         time.Duration(i+2) * time.Second,
			EstDelayMs: 120,
			EstLoss:    0.2,
		})
		changed = changed || ok
	}
	if !changed {
		t.Fatal("controller never reconfigured under sustained loss probes")
	}
	lossyCfg := ctrl.Current()
	if sameConfig(calmCfg, lossyCfg) {
		t.Error("configuration identical under calm and lossy estimates")
	}
	if ctrl.Changes() == 0 {
		t.Error("Changes() = 0 after reconfiguration")
	}
}

func TestOnlineControllerMinHold(t *testing.T) {
	s := searcher(t, kpi.Weights{0.1, 0.1, 0.7, 0.1})
	ctrl, err := NewOnlineController(s, startVector())
	if err != nil {
		t.Fatal(err)
	}
	ctrl.MinHold = 10 * time.Second
	probe := func(at time.Duration) bool {
		_, ok := ctrl.Control(testbed.NetworkProbe{At: at, EstDelayMs: 100, EstLoss: 0.2})
		return ok
	}
	probe(time.Second) // may change (first change is free)
	n := ctrl.Changes()
	if probe(2*time.Second) || ctrl.Changes() != n {
		t.Error("reconfigured within the hold window")
	}
	probe(13 * time.Second)
	if ctrl.Changes() < n {
		t.Error("hold window never released")
	}
}

// TestOnlineEndToEnd runs the full online loop on the testbed: the
// network degrades mid-run with no forecast available, and the
// controller must still cut the loss versus the static default.
func TestOnlineEndToEnd(t *testing.T) {
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
	e := testbed.Experiment{
		Features:   base,
		Messages:   6000,
		Seed:       9,
		Trace:      trace,
		MaxSimTime: spec.Duration,
	}
	static, err := testbed.Run(e)
	if err != nil {
		t.Fatal(err)
	}

	s := searcher(t, kpi.Weights{0.1, 0.1, 0.7, 0.1})
	ctrl, err := NewOnlineController(s, base)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.MinHold = 20 * time.Second
	online, err := testbed.RunOnline(e, 10*time.Second, ctrl.Control)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("static Pl=%.3f; online Pl=%.3f Pd=%.4f with %d changes",
		static.Pl, online.Pl, online.Pd, ctrl.Changes())
	if static.Pl < 0.03 {
		t.Skipf("trace too mild to differentiate (static Pl=%.3f)", static.Pl)
	}
	if ctrl.Changes() == 0 {
		t.Fatal("online controller never reconfigured")
	}
	if online.Pl >= static.Pl {
		t.Errorf("online Pl %.3f did not beat static %.3f", online.Pl, static.Pl)
	}
}
