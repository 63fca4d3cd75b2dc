package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0)) }

func TestConstantSampler(t *testing.T) {
	c := Constant{Value: 42}
	for i := 0; i < 5; i++ {
		if got := c.Sample(); got != 42 {
			t.Fatalf("Sample = %v, want 42", got)
		}
	}
}

func TestParetoScaleAndMean(t *testing.T) {
	p, err := NewPareto(100, 2.5, rng(5))
	if err != nil {
		t.Fatal(err)
	}
	var s Summary
	for i := 0; i < 100000; i++ {
		v := p.Sample()
		if v < 100 {
			t.Fatalf("sample %v below scale 100", v)
		}
		s.Add(v)
	}
	want := 2.5 * 100 / 1.5 // shape*scale/(shape-1) ≈ 166.7
	if math.Abs(s.Mean()-want)/want > 0.05 {
		t.Errorf("mean = %v, want ≈%v", s.Mean(), want)
	}
}

func TestParetoValidation(t *testing.T) {
	if _, err := NewPareto(0, 1, rng(1)); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := NewPareto(1, 0, rng(1)); err == nil {
		t.Error("zero shape accepted")
	}
	if _, err := NewPareto(1, 1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestBernoulliRate(t *testing.T) {
	b, err := NewBernoulli(0.19, rng(7))
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if b.Drop() {
			drops++
		}
	}
	got := float64(drops) / n
	if math.Abs(got-0.19) > 0.01 {
		t.Errorf("empirical drop rate = %v, want ≈0.19", got)
	}
	if b.Rate() != 0.19 {
		t.Errorf("Rate = %v, want 0.19", b.Rate())
	}
}

func TestBernoulliZeroNeedsNoRand(t *testing.T) {
	b, err := NewBernoulli(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Drop() {
		t.Error("p=0 dropped a packet")
	}
}

func TestBernoulliValidation(t *testing.T) {
	if _, err := NewBernoulli(-0.1, rng(1)); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := NewBernoulli(1.1, rng(1)); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := NewBernoulli(0.5, nil); err == nil {
		t.Error("nil rng with p > 0 accepted")
	}
}

func TestGilbertElliotStationaryRate(t *testing.T) {
	// Simplified Gilbert: lossless Good, lossy Bad.
	g, err := NewGilbertElliot(0.05, 0.20, 1.0, 0.2, rng(8))
	if err != nil {
		t.Fatal(err)
	}
	drops := 0
	const n = 300000
	for i := 0; i < n; i++ {
		if g.Drop() {
			drops++
		}
	}
	got := float64(drops) / n
	want := g.Rate() // π_bad·0.8 = (0.05/0.25)·0.8 = 0.16
	if math.Abs(want-0.16) > 1e-9 {
		t.Fatalf("analytic Rate = %v, want 0.16", want)
	}
	if math.Abs(got-want) > 0.01 {
		t.Errorf("empirical rate = %v, want ≈%v", got, want)
	}
}

// TestGilbertElliotSimplifiedStationaryLoss pins the simplified Gilbert
// model (K=1: lossless Good, H=0: fully lossy Bad) to its closed form:
// every packet in Bad is lost and none in Good, so the long-run loss
// rate is exactly the Bad-state occupancy π_bad = p/(p+r). Both the
// analytic Rate() and the empirical drop frequency over many draws must
// match it across a spread of chain speeds.
func TestGilbertElliotSimplifiedStationaryLoss(t *testing.T) {
	cases := []struct{ p, r float64 }{
		{0.01, 0.09},  // slow chain, long dwell times
		{0.05, 0.20},  // the Fig. 9 regime
		{0.25, 0.30},  // fast chain
		{0.10, 0.10},  // symmetric: half the packets lost
		{0.002, 0.04}, // rare, long outages
	}
	for i, c := range cases {
		g, err := NewGilbertElliot(c.p, c.r, 1.0, 0.0, rng(20+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		want := c.p / (c.p + c.r)
		if got := g.Rate(); math.Abs(got-want) > 1e-12 {
			t.Errorf("p=%v r=%v: Rate() = %v, want p/(p+r) = %v", c.p, c.r, got, want)
		}
		const n = 400000
		drops := 0
		for j := 0; j < n; j++ {
			if g.Drop() {
				drops++
			}
		}
		got := float64(drops) / n
		// Burst correlation inflates the variance of the empirical mean
		// well beyond the Bernoulli se; dwell times scale with 1/p and
		// 1/r, so give the slow chains a proportionally wider band.
		tol := 4 * math.Sqrt(want*(1-want)/n*(2/(c.p+c.r)))
		if math.Abs(got-want) > tol {
			t.Errorf("p=%v r=%v: empirical loss %v, want %v ± %v", c.p, c.r, got, want, tol)
		}
	}
}

func TestGilbertElliotBurstiness(t *testing.T) {
	// Compare mean burst length of consecutive drops against Bernoulli at
	// the same long-run rate: the Markov model must be burstier.
	burstMean := func(m LossModel, n int) float64 {
		bursts, cur, sum := 0, 0, 0
		for i := 0; i < n; i++ {
			if m.Drop() {
				cur++
			} else if cur > 0 {
				bursts++
				sum += cur
				cur = 0
			}
		}
		if bursts == 0 {
			return 0
		}
		return float64(sum) / float64(bursts)
	}
	g, err := NewGilbertElliot(0.02, 0.25, 1.0, 0.0, rng(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBernoulli(g.Rate(), rng(10))
	if err != nil {
		t.Fatal(err)
	}
	gb := burstMean(g, 200000)
	bb := burstMean(b, 200000)
	if gb <= bb {
		t.Errorf("gilbert burst mean %v <= bernoulli %v; model not bursty", gb, bb)
	}
}

func TestGilbertElliotFrozenChain(t *testing.T) {
	g, err := NewGilbertElliot(0, 0, 1, 0, rng(11))
	if err != nil {
		t.Fatal(err)
	}
	if g.Rate() != 0 {
		t.Errorf("frozen Good chain rate = %v, want 0", g.Rate())
	}
	if g.Bad() {
		t.Error("chain started Bad")
	}
}

func TestGilbertElliotValidation(t *testing.T) {
	if _, err := NewGilbertElliot(1.5, 0, 1, 0, rng(1)); err == nil {
		t.Error("p > 1 accepted")
	}
	if _, err := NewGilbertElliot(0.1, 0.1, 1, 0, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestSummaryKnownValues(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.n != 8 {
		t.Errorf("N = %d, want 8", s.n)
	}
	if s.Mean() != 5 {
		t.Errorf("Mean = %v, want 5", s.Mean())
	}
	if math.Abs(s.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", s.Variance(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Error("empty summary not zero-valued")
	}
	s.Add(3)
	if s.Variance() != 0 {
		t.Errorf("single-sample variance = %v, want 0", s.Variance())
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Error("single-sample min/max wrong")
	}
}

// Property: Summary matches a direct two-pass computation.
func TestPropertySummaryMatchesTwoPass(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		var s Summary
		mean := 0.0
		for _, v := range raw {
			s.Add(float64(v))
			mean += float64(v)
		}
		mean /= float64(len(raw))
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			return true
		}
		varSum := 0.0
		for _, v := range raw {
			d := float64(v) - mean
			varSum += d * d
		}
		variance := varSum / float64(len(raw)-1)
		scale := math.Max(1, math.Abs(mean))
		if math.Abs(s.Mean()-mean)/scale > 1e-9 {
			return false
		}
		vscale := math.Max(1, variance)
		return math.Abs(s.Variance()-variance)/vscale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMAEAndRMSE(t *testing.T) {
	pred := []float64{0.1, 0.5, 0.9}
	truth := []float64{0.2, 0.5, 0.6}
	mae, err := MAE(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mae-(0.1+0+0.3)/3) > 1e-12 {
		t.Errorf("MAE = %v", mae)
	}
	rmse, err := RMSE(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt((0.01 + 0 + 0.09) / 3)
	if math.Abs(rmse-want) > 1e-12 {
		t.Errorf("RMSE = %v, want %v", rmse, want)
	}
	if _, err := MAE(pred, truth[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RMSE(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDeterminism(t *testing.T) {
	draw := func() []float64 {
		p, err := NewPareto(50, 2, rng(99))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 10)
		for i := range out {
			out[i] = p.Sample()
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkGilbertElliotDrop(b *testing.B) {
	g, err := NewGilbertElliot(0.05, 0.2, 1, 0.2, rng(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Drop()
	}
}

func BenchmarkParetoSample(b *testing.B) {
	p, err := NewPareto(100, 2.5, rng(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Sample()
	}
}

func TestSummaryMerge(t *testing.T) {
	var all, a, b Summary
	for i, v := range []float64{3, 1, 4, 1, 5, 9, 2, 6} {
		all.Add(v)
		if i < 3 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.n != all.n || math.Abs(a.Mean()-all.Mean()) > 1e-12 {
		t.Errorf("merged mean = %v, want %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Variance()-all.Variance()) > 1e-12 {
		t.Errorf("merged variance = %v, want %v", a.Variance(), all.Variance())
	}
	if a.Min() != 1 || a.Max() != 9 {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	// Merging into/with empty summaries.
	var empty Summary
	empty.Merge(a)
	if empty.n != a.n {
		t.Error("merge into empty failed")
	}
	before := a.n
	a.Merge(Summary{})
	if a.n != before {
		t.Error("merging empty changed the summary")
	}
}
