package core

import (
	"fmt"
	"math"
)

// basisDim is the number of monomials of degree ≤ 3 in the inputDim
// normalised inputs: 1 + 7 + 28 + 84.
const basisDim = 1 + inputDim + inputDim*(inputDim+1)/2 + inputDim*(inputDim+1)*(inputDim+2)/6

// basis expands a normalised input to its monomials of degree ≤ 3: the
// constant, then each degree in lexicographic order of the index
// tuples i ≤ j ≤ k.
func basis(x []float64) []float64 {
	out := make([]float64, 0, basisDim)
	out = append(out, 1)
	out = append(out, x...)
	for i := range x {
		for j := i; j < len(x); j++ {
			out = append(out, x[i]*x[j])
		}
	}
	for i := range x {
		for j := i; j < len(x); j++ {
			for k := j; k < len(x); k++ {
				out = append(out, x[i]*x[j]*x[k])
			}
		}
	}
	return out
}

// lambda is the ridge penalty on every weight but the intercept.
const lambda = 1e-2

// maxNewtonSteps bounds fitLogistic; from w = 0 it converges in 8–11
// steps on the Fig. 3 datasets of seeds 1–16, the Table II datasets of
// seeds 1–8 and the examples' datasets.
const maxNewtonSteps = 50

// newtonTol ends the fit once no weight moves by more than this.
const newtonTol = 1e-9

// fitLogistic returns the weights w minimising, over the rows x_i of x
// and targets y_i in [0, 1], the cross-entropy
// −Σ y_i·log μ_i + (1 − y_i)·log(1 − μ_i), μ_i = sigmoid(x_i·w), plus
// λ/2·|w[1:]|² (column 0 is the intercept and is not penalised). The
// objective is strictly convex; Newton's method from w = 0 solves it,
// each step the ridge system (XᵀSX + λI')·d = Xᵀ(μ − y) + λI'w with
// S = diag(μ_i(1 − μ_i)).
func fitLogistic(x [][]float64, y []float64) ([]float64, error) {
	p := len(x[0])
	w := make([]float64, p)
	h := make([]float64, p*p)
	g := make([]float64, p)
	for range maxNewtonSteps {
		clear(h)
		clear(g)
		for i, row := range x {
			mu := sigmoid(dot(row, w))
			s, r := mu*(1-mu), mu-y[i]
			for a, va := range row {
				ha := h[a*p : a*p+a+1]
				for b := range ha {
					ha[b] += s * va * row[b]
				}
				g[a] += r * va
			}
		}
		for a := 1; a < p; a++ {
			h[a*p+a] += lambda
			g[a] += lambda * w[a]
		}
		if err := cholesky(h, p); err != nil {
			return nil, err
		}
		cholSolve(h, p, g)
		moved := 0.0
		for a, d := range g {
			w[a] -= d
			moved = max(moved, math.Abs(d))
		}
		if moved <= newtonTol {
			return w, nil
		}
	}
	return nil, fmt.Errorf("logistic fit: no convergence in %d Newton steps", maxNewtonSteps)
}

// cholesky overwrites the lower triangle of the symmetric p×p matrix a
// (row-major; only the lower triangle is read) with its factor L,
// a = L·Lᵀ.
func cholesky(a []float64, p int) error {
	for j := 0; j < p; j++ {
		d := a[j*p+j]
		for k := 0; k < j; k++ {
			d -= a[j*p+k] * a[j*p+k]
		}
		if !(d > 0) {
			return fmt.Errorf("logistic fit: system not positive definite at column %d", j)
		}
		d = math.Sqrt(d)
		a[j*p+j] = d
		for i := j + 1; i < p; i++ {
			s := a[i*p+j]
			for k := 0; k < j; k++ {
				s -= a[i*p+k] * a[j*p+k]
			}
			a[i*p+j] = s / d
		}
	}
	return nil
}

// cholSolve overwrites b with the solution of L·Lᵀ·v = b.
func cholSolve(l []float64, p int, b []float64) {
	for i := 0; i < p; i++ {
		for k := 0; k < i; k++ {
			b[i] -= l[i*p+k] * b[k]
		}
		b[i] /= l[i*p+i]
	}
	for i := p - 1; i >= 0; i-- {
		for k := i + 1; k < p; k++ {
			b[i] -= l[k*p+i] * b[k]
		}
		b[i] /= l[i*p+i]
	}
}

func sigmoid(v float64) float64 { return 1 / (1 + math.Exp(-v)) }

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
