// Package kpi implements the paper's weighted key performance indicator
// (Eq. 2):
//
//	γ = ω1·φ + ω2·μ + ω3·(1 − P_l) + ω4·(1 − P_d),  Σωᵢ = 1,
//
// combining the performance predictions (bandwidth utilisation φ and
// normalised service rate μ, from internal/perfmodel) with the predicted
// reliability metrics (from internal/core). Maximising γ — or reaching a
// user-defined requirement — is the configuration-selection criterion.
package kpi

import (
	"fmt"

	"kafkarel/internal/core"
	"kafkarel/internal/features"
	"kafkarel/internal/perfmodel"
)

// Weights are ω1..ω4 for φ, μ, (1-P_l) and (1-P_d).
type Weights [4]float64

// DefaultWeights returns the paper's empirical defaults
// (0.3, 0.3, 0.3, 0.1): duplicates weigh least because most applications
// tolerate them via idempotent processing.
func DefaultWeights() Weights { return Weights{0.3, 0.3, 0.3, 0.1} }

// Validate checks non-negativity and unit sum (±0.1% slack).
func (w Weights) Validate() error {
	sum := 0.0
	for i, v := range w {
		if v < 0 {
			return fmt.Errorf("kpi: weight ω%d = %v is negative", i+1, v)
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("kpi: weights sum to %v, want 1", sum)
	}
	return nil
}

// Gamma computes Eq. 2 for already-known component values.
func Gamma(phi, mu, pl, pd float64, w Weights) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	for name, v := range map[string]float64{"phi": phi, "mu": mu, "pl": pl, "pd": pd} {
		if v < 0 || v > 1 {
			return 0, fmt.Errorf("kpi: %s = %v outside [0,1]", name, v)
		}
	}
	return w[0]*phi + w[1]*mu + w[2]*(1-pl) + w[3]*(1-pd), nil
}

// Breakdown is a scored configuration with its components, for reports
// and for the dynamic-configuration search.
type Breakdown struct {
	Gamma float64
	Phi   float64
	Mu    float64
	Pl    float64
	Pd    float64
}

// Evaluator scores feature vectors by combining the reliability
// predictor with the performance model.
type Evaluator struct {
	predictor *core.Predictor
	perf      *perfmodel.Model
	weights   Weights
}

// NewEvaluator wires the two models with the given weights.
func NewEvaluator(p *core.Predictor, perf *perfmodel.Model, w Weights) (*Evaluator, error) {
	if p == nil || perf == nil {
		return nil, fmt.Errorf("kpi: nil predictor or performance model")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Evaluator{predictor: p, perf: perf, weights: w}, nil
}

// Score computes γ and its components for a feature vector.
func (e *Evaluator) Score(v features.Vector) (Breakdown, error) {
	rel, err := e.predictor.Predict(v)
	if err != nil {
		return Breakdown{}, err
	}
	perf, err := e.perf.Predict(v)
	if err != nil {
		return Breakdown{}, err
	}
	g, err := Gamma(perf.Phi, perf.Mu, rel.Pl, rel.Pd, e.weights)
	if err != nil {
		return Breakdown{}, err
	}
	return Breakdown{Gamma: g, Phi: perf.Phi, Mu: perf.Mu, Pl: rel.Pl, Pd: rel.Pd}, nil
}
