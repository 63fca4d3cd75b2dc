// Package ann implements the paper's prediction model: a from-scratch
// feed-forward artificial neural network trained with stochastic
// gradient descent on mean-squared error, with sigmoid outputs that keep
// the predicted probabilities P̂_l, P̂_d inside [0, 1] (avoiding the
// negative-output corner cases the paper mentions). There is one
// network, fixed by the constants in train.go.
package ann

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// layerShapes returns each layer's (fan-in, fan-out) for a network with
// the given input and output widths.
func layerShapes(inputs, outputs int) [][2]int {
	return [][2]int{{inputs, hidden1}, {hidden1, hidden2}, {hidden2, outputs}}
}

// dense is one fully connected layer.
type dense struct {
	in, out int
	// sigmoid marks the output layer; hidden layers are tanh.
	sigmoid bool
	// w is row-major [out][in]; b has one bias per output neuron.
	w, b []float64
	// Momentum buffers.
	vw, vb []float64
	// Forward caches (per-sample training only touches these serially).
	input, output []float64
	// delta is dLoss/dZ for backprop.
	delta []float64
}

func (l *dense) activate(z float64) float64 {
	if l.sigmoid {
		return 1 / (1 + math.Exp(-z))
	}
	return math.Tanh(z)
}

// derivative in terms of the activation output v.
func (l *dense) derivative(v float64) float64 {
	if l.sigmoid {
		return v * (1 - v)
	}
	return 1 - v*v
}

// Network is a feed-forward ANN. Not safe for concurrent use.
type Network struct {
	inputs, outputs int
	// seed fixes weight initialisation and the training shuffle.
	seed   uint64
	layers []*dense
}

// New builds the network for the given input and output widths (both
// positive) with Xavier-uniform initial weights drawn from seed.
func New(inputs, outputs int, seed uint64) *Network {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	n := &Network{inputs: inputs, outputs: outputs, seed: seed}
	shapes := layerShapes(inputs, outputs)
	for li, s := range shapes {
		in, out := s[0], s[1]
		l := &dense{
			in:      in,
			out:     out,
			sigmoid: li == len(shapes)-1,
			w:       make([]float64, out*in),
			b:       make([]float64, out),
			vw:      make([]float64, out*in),
			vb:      make([]float64, out),
			output:  make([]float64, out),
			delta:   make([]float64, out),
		}
		// Xavier-uniform: U(±sqrt(6/(fan_in+fan_out))).
		limit := math.Sqrt(6 / float64(in+out))
		for i := range l.w {
			l.w[i] = (2*rng.Float64() - 1) * limit
		}
		n.layers = append(n.layers, l)
	}
	return n
}

// Inputs returns the network's input width.
func (n *Network) Inputs() int { return n.inputs }

// Outputs returns the network's output width.
func (n *Network) Outputs() int { return n.outputs }

// Forward runs inference; the returned slice is owned by the caller.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.inputs {
		return nil, fmt.Errorf("ann: input has %d dims, want %d", len(x), n.inputs)
	}
	cur := n.forwardInPlace(x)
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
		l.output[o] = l.activate(z)
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
				l.delta[o] = gradOut[o] * l.derivative(l.output[o])
			}
		} else {
			next := n.layers[li+1]
			for o := 0; o < l.out; o++ {
				sum := 0.0
				for k := 0; k < next.out; k++ {
					sum += next.w[k*next.in+o] * next.delta[k]
				}
				l.delta[o] = sum * l.derivative(l.output[o])
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
