// Package kpi implements the reliability half of the paper's weighted
// key performance indicator (Eq. 2):
//
//	γ = ω_l·(1 − P_l) + ω_d·(1 − P_d),  ω_l + ω_d = 1,
//
// over the reliability metrics predicted by internal/core. Eq. 2 also
// weighs bandwidth utilisation φ and normalised service rate μ; on every
// stream's search grid they barely move γ and never move a Table II
// verdict, so they are dropped (PAPER.md §2). Maximising γ is the
// configuration-selection criterion.
package kpi

import (
	"fmt"
	"math"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
)

// Weights are ω_l and ω_d for (1-P_l) and (1-P_d).
type Weights [2]float64

// Validate checks that both weights are finite and non-negative and sum
// to 1 (±0.1% slack).
func (w Weights) Validate() error {
	for i, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("kpi: weight %s = %v is not a finite non-negative number", [2]string{"ω_l", "ω_d"}[i], v)
		}
	}
	if sum := w[0] + w[1]; sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("kpi: weights sum to %v, want 1", sum)
	}
	return nil
}

// Gamma computes γ for already-known loss and duplicate probabilities.
func Gamma(pl, pd float64, w Weights) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if !(pl >= 0 && pl <= 1 && pd >= 0 && pd <= 1) { // NaN fails every comparison
		return 0, fmt.Errorf("kpi: pl = %v, pd = %v: want both in [0,1]", pl, pd)
	}
	return w[0]*(1-pl) + w[1]*(1-pd), nil
}

// Breakdown is a scored configuration with its components, for reports
// and for the dynamic-configuration search.
type Breakdown struct {
	Gamma float64
	Pl    float64
	Pd    float64
}

// Evaluator scores feature vectors with the reliability predictor.
type Evaluator struct {
	predictor *core.Predictor
	weights   Weights
}

// NewEvaluator wires the predictor with the given weights.
func NewEvaluator(p *core.Predictor, w Weights) (*Evaluator, error) {
	if p == nil {
		return nil, fmt.Errorf("kpi: nil predictor")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{predictor: p, weights: w}, nil
}

// Score computes γ and its components for a feature vector.
func (e *Evaluator) Score(v features.Vector) (Breakdown, error) {
	rel, err := e.predictor.Predict(v)
	if err != nil {
		return Breakdown{}, err
	}
	g, err := Gamma(rel.Pl, rel.Pd, e.weights)
	if err != nil {
		return Breakdown{}, err
	}
	return Breakdown{Gamma: g, Pl: rel.Pl, Pd: rel.Pd}, nil
}
