package obs

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// quantileOracle is the brute-force reference: the q-quantile of the
// sorted samples, reported at the resolution the histogram can recover —
// the upper bound of the bucket holding the ⌈q·n⌉-th smallest sample,
// clamped to the exact tracked maximum (overflow bucket → max).
func quantileOracle(sorted []int64, bounds []int64, q float64) int64 {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	v := sorted[rank-1]
	max := sorted[n-1]
	for _, b := range bounds {
		if v <= b {
			if b < max {
				return b
			}
			return max
		}
	}
	return max
}

// TestHistogramQuantileExact checks Quantile against a brute-force sort
// over seeded log-uniform samples spanning every bucket including the
// overflow, for a sweep of quantiles and sample counts.
func TestHistogramQuantileExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	qs := []float64{0, 0.25, 0.50, 0.90, 0.95, 0.99, 1}
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.IntN(2000)
		reg := NewRegistry()
		h := reg.Histogram("h", LatencyBounds)
		samples := make([]int64, n)
		for i := range samples {
			// Log-uniform over [1, 120s in ns]: covers the full bucket
			// range and spills into the overflow bucket.
			v := int64(math.Exp(rng.Float64() * math.Log(1.2e11)))
			samples[i] = v
			h.Observe(v)
		}
		slices.Sort(samples)
		if got, want := h.Max(), samples[n-1]; got != want {
			t.Fatalf("trial %d: Max = %d, want exact max %d", trial, got, want)
		}
		hv, _ := reg.Snapshot().Histogram("h")
		for _, q := range qs {
			want := quantileOracle(samples, LatencyBounds, q)
			if got := hv.Quantile(q); got != want {
				t.Errorf("trial %d n=%d: Quantile(%v) = %d, want %d", trial, n, q, got, want)
			}
		}
	}
}

// TestHistogramQuantileMerged checks that a histogram folded across
// shards the way a fleet folds its span histograms — bucket counts add
// and the max takes the maximum — answers Quantile exactly like the
// brute-force oracle over the union of all shards' samples.
func TestHistogramQuantileMerged(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	merged := HistogramValue{Bounds: LatencyBounds, Counts: make([]uint64, LatencyBuckets)}
	var all []int64
	for i := 0; i < 3; i++ {
		h := NewRegistry().Histogram("h", LatencyBounds)
		for j := 0; j < 400+100*i; j++ {
			v := int64(math.Exp(rng.Float64() * math.Log(1.2e11)))
			all = append(all, v)
			h.Observe(v)
		}
		for b, c := range h.Counts() {
			merged.Counts[b] += c
		}
		merged.Max = max(merged.Max, h.Max())
	}
	slices.Sort(all)
	if got, want := merged.Max, all[len(all)-1]; got != want {
		t.Fatalf("merged Max = %d, want %d", got, want)
	}
	if got := merged.Total(); got != uint64(len(all)) {
		t.Fatalf("merged Total = %d, want %d", got, len(all))
	}
	for _, q := range []float64{0.50, 0.95, 0.99, 1} {
		want := quantileOracle(all, LatencyBounds, q)
		if got := merged.Quantile(q); got != want {
			t.Errorf("merged Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}
