package obs

import (
	"math"
	"math/rand/v2"
	"reflect"
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

// TestHistogramQuantileMerged checks that quantiles of a histogram
// merged across shards match the brute-force oracle over the union of
// all shards' samples — bucket counts add and the max merges, so the
// merged view must answer exactly like a single histogram that saw
// every sample.
func TestHistogramQuantileMerged(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	s := NewSharded(3)
	var all []int64
	for i := 0; i < 3; i++ {
		h := s.Shard(i).Histogram("h", LatencyBounds)
		for j := 0; j < 400+100*i; j++ {
			v := int64(math.Exp(rng.Float64() * math.Log(1.2e11)))
			all = append(all, v)
			h.Observe(v)
		}
	}
	slices.Sort(all)
	hv, ok := s.Merged().Histogram("h")
	if !ok {
		t.Fatal("merged snapshot lacks histogram")
	}
	if got, want := hv.Max, all[len(all)-1]; got != want {
		t.Fatalf("merged Max = %d, want %d", got, want)
	}
	for _, q := range []float64{0.50, 0.95, 0.99, 1} {
		want := quantileOracle(all, LatencyBounds, q)
		if got := hv.Quantile(q); got != want {
			t.Errorf("merged Quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

// TestGaugeKindMergeAssociative checks that merging snapshots with both
// gauge kinds is associative and kind-faithful: max-kind gauges take
// the maximum, sum-kind gauges add.
func TestGaugeKindMergeAssociative(t *testing.T) {
	mk := func(maxV, sumV int64) Snapshot {
		r := NewRegistry()
		r.Gauge("depth.max").SetMax(maxV)
		r.GaugeOf("lag.sum", GaugeKindSum).Set(sumV)
		return r.Snapshot()
	}
	a, b, c := mk(5, 10), mk(9, 20), mk(2, 30)
	left := MergeSnapshots(MergeSnapshots(a, b), c)
	right := MergeSnapshots(a, MergeSnapshots(b, c))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("gauge merge not associative:\n%+v\nvs\n%+v", left, right)
	}
	if got := left.Gauge("depth.max"); got != 9 {
		t.Errorf("max-kind gauge = %d, want 9", got)
	}
	if got := left.Gauge("lag.sum"); got != 60 {
		t.Errorf("sum-kind gauge = %d, want 60", got)
	}
}
