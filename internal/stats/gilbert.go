package stats

import (
	"fmt"
	"math/rand/v2"
)

// LossModel decides, per packet, whether the packet is dropped.
type LossModel interface {
	// Drop returns true when the next packet should be lost.
	Drop() bool
	// Rate returns the model's long-run loss probability.
	Rate() float64
}

// AlwaysLoss drops every packet — a severed link, used by network
// partition fault windows.
type AlwaysLoss struct{}

// Drop implements LossModel.
func (AlwaysLoss) Drop() bool { return true }

// Rate implements LossModel.
func (AlwaysLoss) Rate() float64 { return 1 }

// Bernoulli drops each packet independently with probability P. This is
// NetEm's plain "loss X%" mode used in the Figs. 4-8 experiments.
type Bernoulli struct {
	P    float64
	Rand *rand.Rand
}

// NewBernoulli returns an independent-loss model with probability p.
func NewBernoulli(p float64, rng *rand.Rand) (*Bernoulli, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("stats: bernoulli p %v outside [0,1]", p)
	}
	if rng == nil && p > 0 {
		return nil, fmt.Errorf("stats: bernoulli requires a random source")
	}
	return &Bernoulli{P: p, Rand: rng}, nil
}

// Drop implements LossModel.
func (b *Bernoulli) Drop() bool {
	if b.P <= 0 {
		return false
	}
	return b.Rand.Float64() < b.P
}

// Rate implements LossModel.
func (b *Bernoulli) Rate() float64 { return b.P }

// GilbertElliot is the classic two-state Markov burst-loss model used to
// characterise wireless links (Bildea et al., PIMRC 2015) and by the
// paper's Fig. 9 network. The chain alternates between a Good state with
// per-packet loss probability 1-K and a Bad state with loss probability
// 1-H; P is the Good→Bad transition probability and R the Bad→Good one.
type GilbertElliot struct {
	P, R float64 // state transition probabilities
	K, H float64 // per-packet *delivery* probabilities in Good and Bad
	Rand *rand.Rand

	bad bool
}

// NewGilbertElliot validates the four parameters and returns a model
// starting in the Good state. The common simplified Gilbert model is
// K=1 (no loss in Good), H=0 (all lost in Bad).
func NewGilbertElliot(p, r, k, h float64, rng *rand.Rand) (*GilbertElliot, error) {
	for name, v := range map[string]float64{"p": p, "r": r, "k": k, "h": h} {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("stats: gilbert-elliot %s = %v outside [0,1]", name, v)
		}
	}
	if rng == nil {
		return nil, fmt.Errorf("stats: gilbert-elliot requires a random source")
	}
	return &GilbertElliot{P: p, R: r, K: k, H: h, Rand: rng}, nil
}

// Drop implements LossModel: advance the chain, then draw a per-packet
// loss according to the current state.
func (g *GilbertElliot) Drop() bool {
	if g.bad {
		if g.Rand.Float64() < g.R {
			g.bad = false
		}
	} else {
		if g.Rand.Float64() < g.P {
			g.bad = true
		}
	}
	deliver := g.K
	if g.bad {
		deliver = g.H
	}
	return g.Rand.Float64() >= deliver
}

// Bad reports whether the chain currently sits in the Bad state.
func (g *GilbertElliot) Bad() bool { return g.bad }

// Rate implements LossModel: the stationary loss probability
// π_bad·(1-H) + π_good·(1-K) with π_bad = P/(P+R).
func (g *GilbertElliot) Rate() float64 {
	if g.P+g.R == 0 {
		// Chain never moves: loss rate is that of the starting state.
		if g.bad {
			return 1 - g.H
		}
		return 1 - g.K
	}
	piBad := g.P / (g.P + g.R)
	return piBad*(1-g.H) + (1-piBad)*(1-g.K)
}
