// Package features defines the prediction model's input vector (the
// paper's Eq. 1: {P̂_l, P̂_d} = f(M, S, D, L, Confs)), dataset handling,
// min-max normalisation, and CSV persistence for training data.
package features

import (
	"fmt"
	"math"
	"time"
)

// Semantics codes, mirroring producer.Semantics numerically so this
// package stays dependency-free for the model tooling; a code's name is
// producer.Semantics(code).String().
const (
	SemanticsAtMostOnce  = 1
	SemanticsAtLeastOnce = 2
	SemanticsExactlyOnce = 3
)

// Vector is one point in feature space: the stream type (M, S), the
// network condition (D, L) and the configuration parameters (semantics,
// B, δ, T_o) — features (a) through (h) of Sec. III-D.
type Vector struct {
	// MessageSize is M in bytes.
	MessageSize int
	// Timeliness is S.
	Timeliness time.Duration
	// DelayMs is the one-way network delay D in milliseconds.
	DelayMs float64
	// LossRate is the packet loss rate L in [0, 1].
	LossRate float64
	// Semantics is one of the Semantics* codes.
	Semantics int
	// BatchSize is B in records.
	BatchSize int
	// PollInterval is δ.
	PollInterval time.Duration
	// MessageTimeout is T_o.
	MessageTimeout time.Duration
}

// Dim is the numeric dimensionality of an encoded Vector.
const Dim = 8

// Names lists the encoded dimensions in order.
func Names() []string {
	return []string{
		"message_size_bytes", "timeliness_ms", "delay_ms", "loss_rate",
		"semantics", "batch_size", "poll_interval_ms", "message_timeout_ms",
	}
}

// Encode renders the vector as model inputs (before normalisation).
func (v Vector) Encode() []float64 {
	return []float64{
		float64(v.MessageSize),
		float64(v.Timeliness) / float64(time.Millisecond),
		v.DelayMs,
		v.LossRate,
		float64(v.Semantics),
		float64(v.BatchSize),
		float64(v.PollInterval) / float64(time.Millisecond),
		float64(v.MessageTimeout) / float64(time.Millisecond),
	}
}

// Decode reconstructs a Vector from its encoding.
func Decode(x []float64) (Vector, error) {
	if len(x) != Dim {
		return Vector{}, fmt.Errorf("features: decode needs %d values, got %d", Dim, len(x))
	}
	return Vector{
		MessageSize:    int(x[0]),
		Timeliness:     time.Duration(x[1] * float64(time.Millisecond)),
		DelayMs:        x[2],
		LossRate:       x[3],
		Semantics:      int(x[4]),
		BatchSize:      int(x[5]),
		PollInterval:   time.Duration(x[6] * float64(time.Millisecond)),
		MessageTimeout: time.Duration(x[7] * float64(time.Millisecond)),
	}, nil
}

// Validate reports the first out-of-domain field. NaN is out of every
// domain: the checks are written so that a comparison with NaN, which is
// always false, fails them.
func (v Vector) Validate() error {
	switch {
	case v.MessageSize <= 0:
		return fmt.Errorf("features: message size %d <= 0", v.MessageSize)
	case v.Timeliness < 0:
		return fmt.Errorf("features: negative timeliness")
	case !(v.DelayMs >= 0 && v.DelayMs < math.Inf(1)):
		return fmt.Errorf("features: delay %v ms is not a finite non-negative number", v.DelayMs)
	case !(v.LossRate >= 0 && v.LossRate <= 1):
		return fmt.Errorf("features: loss rate %v outside [0,1]", v.LossRate)
	case v.Semantics < SemanticsAtMostOnce || v.Semantics > SemanticsExactlyOnce:
		return fmt.Errorf("features: unknown semantics %d", v.Semantics)
	case v.BatchSize <= 0:
		return fmt.Errorf("features: batch size %d <= 0", v.BatchSize)
	case v.PollInterval < 0:
		return fmt.Errorf("features: negative poll interval")
	case v.MessageTimeout <= 0:
		return fmt.Errorf("features: message timeout must be positive")
	default:
		return nil
	}
}

// Sample pairs a feature vector with its measured reliability metrics.
type Sample struct {
	X  Vector
	Pl float64
	Pd float64
}

// Dataset is a collection of training samples.
type Dataset []Sample

// Split partitions the dataset deterministically into train and test
// parts with the given test fraction, shuffling by a simple LCG so the
// split is stable across runs with the same seed.
func (d Dataset) Split(testFrac float64, seed uint64) (train, test Dataset, err error) {
	if testFrac < 0 || testFrac > 1 {
		return nil, nil, fmt.Errorf("features: test fraction %v outside [0,1]", testFrac)
	}
	idx := make([]int, len(d))
	for i := range idx {
		idx[i] = i
	}
	state := seed*6364136223846793005 + 1442695040888963407
	for i := len(idx) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	nTest := int(float64(len(d)) * testFrac)
	test = make(Dataset, 0, nTest)
	train = make(Dataset, 0, len(d)-nTest)
	for i, id := range idx {
		if i < nTest {
			test = append(test, d[id])
		} else {
			train = append(train, d[id])
		}
	}
	return train, test, nil
}
