// Package core implements the paper's primary contribution: the
// reliability prediction framework of Eq. 1,
//
//	{P̂_l, P̂_d} = f(M, S, D, L, Confs),
//
// a learned model that maps a feature vector (message size, timeliness,
// network delay, loss rate, and the producer configuration) to the
// predicted probabilities of message loss and duplication.
//
// Following Sec. III-G, the framework fits one model per delivery
// semantics: the at-most-once model has a single output (P̂_l only,
// since fire-and-forget cannot duplicate), while the acknowledged-
// semantics models predict both metrics. Where the paper trains a
// feed-forward ANN by SGD, each model here is a convex fit: ridge-
// penalised logistic regression of each output on the degree-≤3
// monomials of the normalised features.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"kafkarel/internal/features"
)

// Prediction is the model output for one feature vector.
type Prediction struct {
	Pl float64
	Pd float64
}

// inputDim is the per-semantics model input: the encoded feature vector
// without the semantics dimension (each model owns one semantics).
const inputDim = features.Dim - 1

// encodeInput drops the semantics dimension from the encoded vector.
func encodeInput(v features.Vector) []float64 {
	full := v.Encode()
	out := make([]float64, 0, inputDim)
	out = append(out, full[:4]...) // M, S, D, L
	out = append(out, full[5:]...) // B, δ, T_o
	return out
}

// semModel is one semantics' fitted model: the normaliser of its inputs
// and, per output, the weights over basis(normalised input).
type semModel struct {
	Norm    *features.Normalizer `json:"normalizer"`
	Weights [][]float64          `json:"weights"`
}

// outputsFor is 1 for at-most-once (P̂_l) and 2 otherwise (P̂_l, P̂_d).
func outputsFor(semantics int) int {
	if semantics == features.SemanticsAtMostOnce {
		return 1
	}
	return 2
}

// predict returns sigmoid(w·basis(x)) per output for an encoded input.
func (m *semModel) predict(x []float64) ([]float64, error) {
	in, err := m.Norm.Apply(x)
	if err != nil {
		return nil, err
	}
	b := basis(in)
	out := make([]float64, len(m.Weights))
	for o, w := range m.Weights {
		out[o] = sigmoid(dot(b, w))
	}
	return out, nil
}

// Predictor routes feature vectors to per-semantics models.
type Predictor struct {
	models map[int]*semModel
}

// Predict returns P̂_l and P̂_d for the vector. The logistic link keeps
// predictions inside [0, 1]; at-most-once P̂_d is identically zero.
func (p *Predictor) Predict(v features.Vector) (Prediction, error) {
	if err := v.Validate(); err != nil {
		return Prediction{}, fmt.Errorf("core: %w", err)
	}
	m, ok := p.models[v.Semantics]
	if !ok {
		return Prediction{}, fmt.Errorf("core: no model trained for semantics %d", v.Semantics)
	}
	out, err := m.predict(encodeInput(v))
	if err != nil {
		return Prediction{}, fmt.Errorf("core: %w", err)
	}
	pred := Prediction{Pl: out[0]}
	if len(out) == 2 {
		pred.Pd = out[1]
	}
	return pred, nil
}

// --- persistence ----------------------------------------------------------

type predictorFile struct {
	Version int               `json:"version"`
	Models  map[int]*semModel `json:"models"`
}

const predictorVersion = 3

// Save serialises all per-semantics models as one JSON document.
func (p *Predictor) Save(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(predictorFile{Version: predictorVersion, Models: p.models}); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Load reads a predictor written by Save. Every model must have the
// shape Predict will use it at, and bounds that keep every prediction
// finite.
func Load(r io.Reader) (*Predictor, error) {
	var pf predictorFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if pf.Version != predictorVersion {
		return nil, fmt.Errorf("core: load: unsupported version %d", pf.Version)
	}
	if len(pf.Models) == 0 {
		return nil, fmt.Errorf("core: load: empty predictor")
	}
	for sem, m := range pf.Models {
		if sem < features.SemanticsAtMostOnce || sem > features.SemanticsExactlyOnce {
			return nil, fmt.Errorf("core: load: unknown semantics %d", sem)
		}
		if err := m.check(outputsFor(sem)); err != nil {
			return nil, fmt.Errorf("core: load semantics %d: %w", sem, err)
		}
	}
	return &Predictor{models: pf.Models}, nil
}

// check reports a model Predict could not use as it stands: a missing
// or mis-sized normaliser, one whose span overflows or is negative, a
// count of outputs other than outs, or a weight vector of another
// length than basisDim, or one whose absolute sum is not finite. The
// basis lies in [0, 1] after normalising, so that sum bounds |w·basis|.
func (m *semModel) check(outs int) error {
	if m == nil || m.Norm == nil {
		return fmt.Errorf("missing model or normalizer")
	}
	n := m.Norm
	if len(n.Min) != inputDim || len(n.Max) != inputDim {
		return fmt.Errorf("normalizer has %d minima and %d maxima, want %d", len(n.Min), len(n.Max), inputDim)
	}
	for j := range n.Min {
		if span := n.Max[j] - n.Min[j]; !(span >= 0) || math.IsInf(span, 0) {
			return fmt.Errorf("normalizer dimension %d spans [%g, %g]", j, n.Min[j], n.Max[j])
		}
	}
	if len(m.Weights) != outs {
		return fmt.Errorf("%d outputs, want %d", len(m.Weights), outs)
	}
	for o, w := range m.Weights {
		if len(w) != basisDim {
			return fmt.Errorf("output %d has %d weights, want %d", o, len(w), basisDim)
		}
		sum := 0.0
		for _, v := range w {
			sum += math.Abs(v)
		}
		if math.IsInf(sum, 0) || math.IsNaN(sum) {
			return fmt.Errorf("output %d: weights are not finite in sum", o)
		}
	}
	return nil
}
