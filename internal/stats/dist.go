// Package stats provides the probability distributions and loss models the
// testbed injects (Pareto delay per Zhang & He [23], Gilbert-Elliot packet
// loss per Bildea et al. [24]) plus small online-statistics helpers used
// throughout the repository.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Sampler produces one draw per call. All samplers in this package are
// deterministic given the *rand.Rand they were constructed with.
type Sampler interface {
	Sample() float64
}

// Constant always returns the same value. It is the zero-jitter delay
// model.
type Constant struct{ Value float64 }

// Sample implements Sampler.
func (c Constant) Sample() float64 { return c.Value }

// Pareto samples from a (type I) Pareto distribution with scale xm > 0 and
// shape alpha > 0. End-to-end network delay is well modelled by a Pareto
// tail (Zhang & He, ICIMP 2007), and the paper's Fig. 9 network uses it
// for the delay process.
type Pareto struct {
	Scale float64 // xm: minimum value
	Shape float64 // alpha: tail index
	Rand  *rand.Rand
}

// NewPareto returns a Pareto sampler.
func NewPareto(scale, shape float64, rng *rand.Rand) (*Pareto, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("stats: pareto scale %v <= 0", scale)
	}
	if shape <= 0 {
		return nil, fmt.Errorf("stats: pareto shape %v <= 0", shape)
	}
	if rng == nil {
		return nil, fmt.Errorf("stats: pareto requires a random source")
	}
	return &Pareto{Scale: scale, Shape: shape, Rand: rng}, nil
}

// Sample implements Sampler via inverse-CDF transform.
func (p *Pareto) Sample() float64 {
	u := p.Rand.Float64()
	// Guard u == 0: the inverse CDF diverges there.
	for u == 0 {
		u = p.Rand.Float64()
	}
	return p.Scale / math.Pow(u, 1/p.Shape)
}
