package kpi

import (
	"math"
	"testing"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
	"kafkarel/internal/perfmodel"
	"kafkarel/internal/testbed"
)

func TestWeightsValidate(t *testing.T) {
	if err := DefaultWeights().Validate(); err != nil {
		t.Errorf("default weights invalid: %v", err)
	}
	if err := (Weights{0.4, 0.3, 0.2, 0.1}).Validate(); err != nil {
		t.Errorf("table-II weights invalid: %v", err)
	}
	if err := (Weights{0.5, 0.5, 0.5, 0.5}).Validate(); err == nil {
		t.Error("non-unit sum accepted")
	}
	if err := (Weights{-0.1, 0.5, 0.5, 0.1}).Validate(); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestGammaKnownValues(t *testing.T) {
	// Perfect system: γ = 1 regardless of weights.
	g, err := Gamma(1, 1, 0, 0, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-1) > 1e-12 {
		t.Errorf("γ = %v, want 1", g)
	}
	// Worst system: γ = 0.
	g, err = Gamma(0, 0, 1, 1, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if g != 0 {
		t.Errorf("γ = %v, want 0", g)
	}
	// Hand-computed mid point.
	g, err = Gamma(0.5, 0.8, 0.1, 0.02, Weights{0.3, 0.3, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3*0.5 + 0.3*0.8 + 0.3*0.9 + 0.1*0.98
	if math.Abs(g-want) > 1e-12 {
		t.Errorf("γ = %v, want %v", g, want)
	}
}

func TestGammaValidation(t *testing.T) {
	if _, err := Gamma(2, 0, 0, 0, DefaultWeights()); err == nil {
		t.Error("phi > 1 accepted")
	}
	if _, err := Gamma(0, 0, -0.1, 0, DefaultWeights()); err == nil {
		t.Error("negative pl accepted")
	}
	if _, err := Gamma(0, 0, 0, 0, Weights{1, 1, 1, 1}); err == nil {
		t.Error("bad weights accepted")
	}
}

func TestGammaRewardsReliability(t *testing.T) {
	w := Weights{0.1, 0.1, 0.7, 0.1} // web-logs profile: completeness first
	lossy, err := Gamma(0.9, 0.9, 0.5, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	reliable, err := Gamma(0.3, 0.3, 0.01, 0, w)
	if err != nil {
		t.Fatal(err)
	}
	if reliable <= lossy {
		t.Errorf("completeness weights prefer the lossy config: %v vs %v", reliable, lossy)
	}
}

func trainedEvaluator(t *testing.T, w Weights) *Evaluator {
	t.Helper()
	var ds features.Dataset
	for _, l := range []float64{0, 0.1, 0.2, 0.3} {
		for _, b := range []int{1, 2, 5} {
			v := features.Vector{
				MessageSize:    200,
				Timeliness:     5 * time.Second,
				LossRate:       l,
				Semantics:      features.SemanticsAtLeastOnce,
				BatchSize:      b,
				MessageTimeout: time.Second,
			}
			ds = append(ds, features.Sample{X: v, Pl: l * 2 / float64(b), Pd: 0.01 * l})
		}
	}
	pred, _, err := core.Train(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := perfmodel.New(testbed.Calibration{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(pred, perf, w)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestEvaluatorScore(t *testing.T) {
	ev := trainedEvaluator(t, DefaultWeights())
	v := features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		LossRate:       0.1,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      2,
		MessageTimeout: time.Second,
	}
	b, err := ev.Score(v)
	if err != nil {
		t.Fatal(err)
	}
	if b.Gamma <= 0 || b.Gamma > 1 {
		t.Errorf("γ = %v", b.Gamma)
	}
	// Reliability-driven ordering: lower loss rate must score higher
	// under completeness-heavy weights.
	ev.weights = Weights{0.05, 0.05, 0.85, 0.05}
	clean := v
	clean.LossRate = 0
	bClean, err := ev.Score(clean)
	if err != nil {
		t.Fatal(err)
	}
	dirty := v
	dirty.LossRate = 0.3
	bDirty, err := ev.Score(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if bClean.Gamma <= bDirty.Gamma {
		t.Errorf("γ(clean) = %v <= γ(lossy) = %v", bClean.Gamma, bDirty.Gamma)
	}
}

func TestEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil, nil, DefaultWeights()); err == nil {
		t.Error("nil models accepted")
	}
	ev := trainedEvaluator(t, DefaultWeights())
	if _, err := NewEvaluator(ev.predictor, ev.perf, Weights{2, 0, 0, 0}); err == nil {
		t.Error("bad weights accepted")
	}
	if _, err := ev.Score(features.Vector{}); err == nil {
		t.Error("invalid vector accepted")
	}
	// Unknown semantics surfaces the predictor error.
	v := features.Vector{
		MessageSize: 100, Semantics: features.SemanticsExactlyOnce,
		BatchSize: 1, MessageTimeout: time.Second,
	}
	if _, err := ev.Score(v); err == nil {
		t.Error("unmodelled semantics accepted")
	}
}
