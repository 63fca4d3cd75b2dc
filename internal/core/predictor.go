// Package core implements the paper's primary contribution: the
// reliability prediction framework of Eq. 1,
//
//	{P̂_l, P̂_d} = f(M, S, D, L, Confs),
//
// an ANN-based model that maps a feature vector (message size,
// timeliness, network delay, loss rate, and the producer configuration)
// to the predicted probabilities of message loss and duplication.
//
// Following Sec. III-G, the framework trains one network per delivery
// semantics: the at-most-once model has a single output neuron (P̂_l
// only, since fire-and-forget cannot duplicate) and a reduced input
// layer, while the acknowledged-semantics models predict both metrics.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"kafkarel/internal/ann"
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

// semModel is one semantics' trained network, whose width is
// outputsFor(semantics).
type semModel struct {
	net  *ann.Network
	norm *features.Normalizer
}

// outputsFor is 1 for at-most-once (P̂_l) and 2 otherwise (P̂_l, P̂_d).
func outputsFor(semantics int) int {
	if semantics == features.SemanticsAtMostOnce {
		return 1
	}
	return 2
}

// Predictor routes feature vectors to per-semantics ANN models.
type Predictor struct {
	models map[int]*semModel
}

// Predict returns P̂_l and P̂_d for the vector. Predictions are clamped
// to [0, 1] by the sigmoid output layer; at-most-once P̂_d is identically
// zero.
func (p *Predictor) Predict(v features.Vector) (Prediction, error) {
	if err := v.Validate(); err != nil {
		return Prediction{}, fmt.Errorf("core: %w", err)
	}
	m, ok := p.models[v.Semantics]
	if !ok {
		return Prediction{}, fmt.Errorf("core: no model trained for semantics %d", v.Semantics)
	}
	in, err := m.norm.Apply(encodeInput(v))
	if err != nil {
		return Prediction{}, fmt.Errorf("core: %w", err)
	}
	out, err := m.net.Forward(in)
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
	Version int                          `json:"version"`
	Models  map[int]json.RawMessage      `json:"models"`
	Norms   map[int]*features.Normalizer `json:"normalizers"`
}

const predictorVersion = 2

// Save serialises all per-semantics models as one JSON document.
func (p *Predictor) Save(w io.Writer) error {
	pf := predictorFile{
		Version: predictorVersion,
		Models:  make(map[int]json.RawMessage, len(p.models)),
		Norms:   make(map[int]*features.Normalizer, len(p.models)),
	}
	for sem, m := range p.models {
		var buf bytes.Buffer
		if err := m.net.Save(&buf); err != nil {
			return fmt.Errorf("core: save semantics %d: %w", sem, err)
		}
		pf.Models[sem] = json.RawMessage(buf.Bytes())
		pf.Norms[sem] = m.norm
	}
	if err := json.NewEncoder(w).Encode(pf); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return nil
}

// Load reads a predictor written by Save. Every network and normalizer
// must have the shape Predict will use it at.
func Load(r io.Reader) (*Predictor, error) {
	var pf predictorFile
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	if pf.Version != predictorVersion {
		return nil, fmt.Errorf("core: load: unsupported version %d", pf.Version)
	}
	p := &Predictor{models: make(map[int]*semModel, len(pf.Models))}
	for sem, raw := range pf.Models {
		if sem < features.SemanticsAtMostOnce || sem > features.SemanticsExactlyOnce {
			return nil, fmt.Errorf("core: load: unknown semantics %d", sem)
		}
		net, err := ann.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("core: load semantics %d: %w", sem, err)
		}
		if net.Inputs() != inputDim || net.Outputs() != outputsFor(sem) {
			return nil, fmt.Errorf("core: load semantics %d: network is %d→%d, want %d→%d",
				sem, net.Inputs(), net.Outputs(), inputDim, outputsFor(sem))
		}
		norm, ok := pf.Norms[sem]
		if !ok || norm == nil {
			return nil, fmt.Errorf("core: load: missing normalizer for semantics %d", sem)
		}
		if len(norm.Min) != inputDim || len(norm.Max) != inputDim {
			return nil, fmt.Errorf("core: load semantics %d: normalizer has %d minima and %d maxima, want %d",
				sem, len(norm.Min), len(norm.Max), inputDim)
		}
		p.models[sem] = &semModel{net: net, norm: norm}
	}
	if len(p.models) == 0 {
		return nil, fmt.Errorf("core: load: empty predictor")
	}
	return p, nil
}
