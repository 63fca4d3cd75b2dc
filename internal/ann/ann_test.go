package ann

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestActivations(t *testing.T) {
	out, hidden := &dense{sigmoid: true}, &dense{}
	if got := out.activate(0); got != 0.5 {
		t.Errorf("sigmoid(0) = %v", got)
	}
	if got := hidden.activate(0); got != 0 {
		t.Errorf("tanh(0) = %v", got)
	}
	// Derivative identities at characteristic points.
	if got := out.derivative(0.5); got != 0.25 {
		t.Errorf("sigmoid'(v=0.5) = %v", got)
	}
	if got := hidden.derivative(0); got != 1 {
		t.Errorf("tanh'(v=0) = %v", got)
	}
	// Only the output layer is sigmoid.
	n := New(3, 2, 0)
	for li, l := range n.layers {
		if l.sigmoid != (li == len(n.layers)-1) {
			t.Errorf("layer %d sigmoid = %v", li, l.sigmoid)
		}
	}
}

func TestForwardDimensions(t *testing.T) {
	n := New(3, 2, 0)
	out, err := n.Forward([]float64{0.1, 0.2, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("output dim = %d", len(out))
	}
	for _, v := range out {
		if v < 0 || v > 1 {
			t.Errorf("sigmoid output %v outside [0,1]", v)
		}
	}
	if _, err := n.Forward([]float64{1}); err == nil {
		t.Error("wrong input dim accepted")
	}
}

func TestDeterministicInitAndTraining(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := [][]float64{{0}, {1}, {1}, {0}}
	train := func() []float64 {
		n := New(2, 1, 42)
		if _, err := n.Train(x, y); err != nil {
			t.Fatal(err)
		}
		out, err := n.Forward([]float64{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := train(), train()
	if a[0] != b[0] {
		t.Errorf("same seed diverged: %v vs %v", a[0], b[0])
	}
}

func TestLearnsSmoothSurface(t *testing.T) {
	// A smooth 2-in 2-out target resembling (Pl, Pd) response surfaces.
	target := func(a, b float64) (float64, float64) {
		return 0.5 * (1 + math.Tanh(3*(a-b))) / 2 * 1.6, 0.2 * a * b
	}
	rng := rand.New(rand.NewPCG(5, 0))
	var x, y [][]float64
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		p, q := target(a, b)
		x = append(x, []float64{a, b})
		y = append(y, []float64{p, q})
	}
	n := New(2, 2, 6)
	res, err := n.Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainMAE > 0.02 {
		t.Fatalf("train MAE = %v, want < 0.02 (the paper's bar)", res.TrainMAE)
	}
	// Held-out points.
	var tx, ty [][]float64
	for i := 0; i < 50; i++ {
		a, b := rng.Float64(), rng.Float64()
		p, q := target(a, b)
		tx = append(tx, []float64{a, b})
		ty = append(ty, []float64{p, q})
	}
	mae, rmse, err := n.Evaluate(tx, ty)
	if err != nil {
		t.Fatal(err)
	}
	if mae > 0.03 {
		t.Errorf("test MAE = %v (rmse %v)", mae, rmse)
	}
}

func TestEarlyStopTarget(t *testing.T) {
	x := [][]float64{{0}, {1}}
	y := [][]float64{{0}, {1}}
	res, err := New(1, 1, 0).Train(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= epochs || res.Epochs%10 != 0 {
		t.Errorf("early stop never triggered: %d of %d epochs", res.Epochs, epochs)
	}
	if res.TrainMAE >= targetMAE {
		t.Errorf("stopped at train MAE %v, target %v", res.TrainMAE, targetMAE)
	}
}

func TestTrainValidation(t *testing.T) {
	n := New(2, 1, 0)
	if _, err := n.Train(nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := n.Train([][]float64{{1, 2}}, [][]float64{{1}, {2}}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := n.Train([][]float64{{1}}, [][]float64{{1}}); err == nil {
		t.Error("wrong input dim accepted")
	}
	if _, err := n.Train([][]float64{{1, 2}}, [][]float64{{1, 2}}); err == nil {
		t.Error("wrong target dim accepted")
	}
	if _, _, err := n.Evaluate(nil, nil); err == nil {
		t.Error("empty evaluation accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	x := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := [][]float64{{0}, {1}, {1}, {1}}
	n := New(2, 1, 0)
	if _, err := n.Train(x, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Inputs() != 2 || loaded.Outputs() != 1 {
		t.Fatalf("loaded widths %d→%d, want 2→1", loaded.Inputs(), loaded.Outputs())
	}
	for _, in := range x {
		a, err := n.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		if a[0] != b[0] {
			t.Errorf("loaded model differs on %v: %v vs %v", in, a[0], b[0])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":        "not json",
		"wrong version":   `{"version":99}`,
		"version 1":       `{"version":1,"config":{"input_dim":2,"layers":[{"neurons":1,"activation":1}]}}`,
		"no inputs":       `{"version":2,"inputs":0,"outputs":1}`,
		"negative output": `{"version":2,"inputs":2,"outputs":-1}`,
		"no layers":       `{"version":2,"inputs":2,"outputs":1,"weights":[],"biases":[]}`,
		"short layer":     `{"version":2,"inputs":2,"outputs":1,"weights":[[1],[1],[1]],"biases":[[1],[1],[1]]}`,
	} {
		if _, err := Load(bytes.NewBufferString(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Property: gradient of the loss matches a numerical finite-difference
// estimate (the canonical backprop correctness check), on the
// production network.
func TestPropertyGradientCheck(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		n := New(3, 2, seed)
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := []float64{rng.Float64(), rng.Float64()}

		loss := func() float64 {
			out := n.forwardInPlace(x)
			s := 0.0
			for j := range out {
				d := out[j] - y[j]
				s += d * d / float64(len(out))
			}
			return s
		}

		// Analytic gradients.
		gw := make([][]float64, len(n.layers))
		gb := make([][]float64, len(n.layers))
		for li, l := range n.layers {
			gw[li] = make([]float64, len(l.w))
			gb[li] = make([]float64, len(l.b))
		}
		out := n.forwardInPlace(x)
		gradOut := make([]float64, len(out))
		for j := range out {
			gradOut[j] = 2 * (out[j] - y[j]) / float64(len(out))
		}
		n.backward(gradOut, gw, gb)

		// Numerical check on a few random weights.
		const eps = 1e-6
		for trial := 0; trial < 6; trial++ {
			li := rng.IntN(len(n.layers))
			l := n.layers[li]
			wi := rng.IntN(len(l.w))
			orig := l.w[wi]
			l.w[wi] = orig + eps
			up := loss()
			l.w[wi] = orig - eps
			down := loss()
			l.w[wi] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-gw[li][wi]) > 1e-4*(1+math.Abs(numeric)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: sigmoid-output networks always predict inside [0, 1],
// whatever the weights have become — the paper's no-negative-probability
// guarantee.
func TestPropertyOutputsBounded(t *testing.T) {
	f := func(seed uint64, raw []float64) bool {
		n := New(3, 2, seed)
		x := make([]float64, 3)
		for i := 0; i < 3 && i < len(raw); i++ {
			if math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				return true
			}
			x[i] = math.Mod(raw[i], 1000)
		}
		out, err := n.Forward(x)
		if err != nil {
			return false
		}
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
