package testbed

import (
	"testing"
	"time"

	"kafkarel/internal/features"
)

// TestExploreShapes is a manual calibration aid: run with
//
//	go test ./internal/testbed/ -run TestExploreShapes -v -explore
//
// It prints the operating points behind Figs. 4-8 so the hostCalibration
// constants (calibration.go) can be tuned. It is skipped in normal runs.
func TestExploreShapes(t *testing.T) {
	if !*exploreFlag {
		t.Skip("pass -explore to run")
	}
	base := features.Vector{
		Timeliness:     5 * time.Second,
		Semantics:      features.SemanticsAtMostOnce,
		BatchSize:      1,
		MessageTimeout: 500 * time.Millisecond,
	}
	run := func(v features.Vector, n int) Result {
		res, err := Run(Experiment{Features: v, Messages: n, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Log("=== Fig 4: Pl vs M at D=100ms L=19% ===")
	for _, m := range []int{50, 100, 200, 300, 500, 1000} {
		for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce} {
			v := base
			v.MessageSize = m
			v.DelayMs = 100
			v.LossRate = 0.19
			v.Semantics = sem
			v.MessageTimeout = 1500 * time.Millisecond
			res := run(v, 3000)
			t.Logf("M=%4d sem=%d Pl=%.3f Pd=%.4f thr=%.1f/s dur=%v acq=%d",
				m, sem, res.Pl, res.Pd, res.Throughput, res.Duration.Round(time.Second), res.Acquired)
		}
	}

	t.Log("=== Fig 5: Pl vs To, no faults, full load, M=200 ===")
	for _, to := range []int{250, 500, 1000, 1500, 2000, 2500} {
		for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce} {
			v := base
			v.MessageSize = 200
			v.Semantics = sem
			v.MessageTimeout = time.Duration(to) * time.Millisecond
			res := run(v, 5000)
			t.Logf("To=%4dms sem=%d Pl=%.3f lat(mean=%.0f max=%.0f)ms",
				to, sem, res.Pl, res.Latency.Mean(), res.Latency.Max())
		}
	}

	t.Log("=== Fig 6: Pl vs delta, To=500ms, M=200, at-most-once ===")
	for _, dm := range []int{0, 10, 30, 50, 70, 90} {
		v := base
		v.MessageSize = 200
		v.PollInterval = time.Duration(dm) * time.Millisecond
		res := run(v, 5000)
		t.Logf("delta=%3dms Pl=%.3f", dm, res.Pl)
	}

	t.Log("=== Fig 7: Pl vs L for B in {1,2,5,10}, M=200, both semantics ===")
	for _, b := range []int{1, 2, 5, 10} {
		for _, l := range []float64{0, 0.05, 0.08, 0.13, 0.20, 0.30, 0.40} {
			for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce} {
				v := base
				v.MessageSize = 200
				v.BatchSize = b
				v.LossRate = l
				v.Semantics = sem
				res := run(v, 3000)
				t.Logf("B=%2d L=%.2f sem=%d Pl=%.3f Pd=%.4f", b, l, sem, res.Pl, res.Pd)
			}
		}
	}

	t.Log("=== Fig 8: Pd vs B at-least-once, various L, To=3s, D=100ms ===")
	for _, l := range []float64{0.05, 0.10, 0.15, 0.20} {
		for _, b := range []int{1, 2, 4, 6, 8, 10} {
			v := base
			v.MessageSize = 200
			v.BatchSize = b
			v.LossRate = l
			v.DelayMs = 100
			v.Semantics = features.SemanticsAtLeastOnce
			v.MessageTimeout = 3 * time.Second
			res := run(v, 3000)
			t.Logf("L=%.2f B=%2d Pd=%.4f Pl=%.3f", l, b, res.Pd, res.Pl)
		}
	}
}
