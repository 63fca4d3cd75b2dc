package kpi

import (
	"math"
	"testing"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
)

// webLogs weighs completeness first, like the web-logs stream profile.
var webLogs = Weights{0.875, 0.125}

func TestWeightsValidate(t *testing.T) {
	for _, w := range []Weights{webLogs, {0.5, 0.5}, {1, 0}, {2.0 / 3, 1.0 / 3}} {
		if err := w.Validate(); err != nil {
			t.Errorf("%v rejected: %v", w, err)
		}
	}
	for _, tc := range []struct {
		name string
		w    Weights
	}{
		{"non-unit sum", Weights{0.5, 0.6}},
		{"negative weight", Weights{-0.1, 1.1}},
		{"NaN weight", Weights{math.NaN(), 1}},
		{"NaN beside a unit weight", Weights{1, math.NaN()}},
		{"+Inf weight", Weights{math.Inf(1), 0}},
		{"-Inf weight", Weights{math.Inf(-1), math.Inf(1)}},
	} {
		if err := tc.w.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestGammaKnownValues(t *testing.T) {
	// Perfect system: γ = 1 regardless of weights.
	g, err := Gamma(0, 0, webLogs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-1) > 1e-12 {
		t.Errorf("γ = %v, want 1", g)
	}
	// Worst system: γ = 0.
	g, err = Gamma(1, 1, webLogs)
	if err != nil {
		t.Fatal(err)
	}
	if g != 0 {
		t.Errorf("γ = %v, want 0", g)
	}
	// Hand-computed mid point.
	g, err = Gamma(0.1, 0.02, Weights{0.75, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.75*0.9 + 0.25*0.98
	if math.Abs(g-want) > 1e-12 {
		t.Errorf("γ = %v, want %v", g, want)
	}
}

func TestGammaValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pl, pd float64
		w      Weights
	}{
		{"pl > 1", 2, 0, webLogs},
		{"negative pl", -0.1, 0, webLogs},
		{"pd > 1", 0, 1.5, webLogs},
		{"NaN pl", math.NaN(), 0, webLogs},
		{"NaN pd", 0, math.NaN(), webLogs},
		{"+Inf pl", math.Inf(1), 0, webLogs},
		{"-Inf pd", 0, math.Inf(-1), webLogs},
		{"bad weights", 0, 0, Weights{1, 1}},
		{"NaN weight", 0, 0, Weights{math.NaN(), 0.5}},
	} {
		if g, err := Gamma(tc.pl, tc.pd, tc.w); err == nil {
			t.Errorf("%s accepted: γ = %v", tc.name, g)
		}
	}
}

func TestGammaRewardsReliability(t *testing.T) {
	// Completeness-first weights prefer fewer losses even at many more
	// duplicates.
	lossy, err := Gamma(0.2, 0, webLogs)
	if err != nil {
		t.Fatal(err)
	}
	reliable, err := Gamma(0.01, 0.5, webLogs)
	if err != nil {
		t.Fatal(err)
	}
	if reliable <= lossy {
		t.Errorf("completeness weights prefer the lossy config: %v vs %v", reliable, lossy)
	}
	// Duplicates still cost something.
	dup, err := Gamma(0.01, 0.6, webLogs)
	if err != nil {
		t.Fatal(err)
	}
	if dup >= reliable {
		t.Errorf("more duplicates did not lower γ: %v vs %v", dup, reliable)
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
	ev, err := NewEvaluator(pred, w)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestEvaluatorScore(t *testing.T) {
	ev := trainedEvaluator(t, webLogs)
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
	// The score is γ of the predicted components.
	want, err := Gamma(b.Pl, b.Pd, webLogs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Gamma != want {
		t.Errorf("γ = %v, want γ(P̂_l=%v, P̂_d=%v) = %v", b.Gamma, b.Pl, b.Pd, want)
	}
	// Reliability-driven ordering: lower loss rate must score higher.
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
	if _, err := NewEvaluator(nil, webLogs); err == nil {
		t.Error("nil predictor accepted")
	}
	ev := trainedEvaluator(t, webLogs)
	if _, err := NewEvaluator(ev.predictor, Weights{2, 0}); err == nil {
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
