package obs

import "sort"

// Sharded is a fleet run's registry family: one independent *Registry
// per shard, merged into a single deterministic Snapshot at the end of
// the run. Each shard of a fleet (one topic's simulation) owns its
// registry under the package's single-writer contract — the metrics are
// plain integers, so one registry written by parallel shards would be a
// data race, not merely slow. Merged reads the shards, so call it only
// after every shard's run has finished and been waited for.
//
// A nil *Sharded is the disabled implementation: Shard returns the nil
// (no-op) registry and Merged returns the empty snapshot, matching the
// rest of the package's nil-safety contract.
type Sharded struct {
	shards []*Registry
}

// NewSharded returns n independent enabled registries. n <= 0 yields a
// zero-shard family whose Merged snapshot is empty.
func NewSharded(n int) *Sharded {
	if n < 0 {
		n = 0
	}
	s := &Sharded{shards: make([]*Registry, n)}
	for i := range s.shards {
		s.shards[i] = NewRegistry()
	}
	return s
}

// Shard returns shard i's registry. Out-of-range indices and a nil
// receiver return the nil (disabled) registry.
func (s *Sharded) Shard(i int) *Registry {
	if s == nil || i < 0 || i >= len(s.shards) {
		return nil
	}
	return s.shards[i]
}

// Merged folds every shard's snapshot into one, in shard order:
// counters and histogram buckets sum, gauges merge by their registered
// kind (max for high-water marks, sum for levels like lag). The result
// is sorted by metric name like any registry snapshot, so it is
// byte-comparable across worker counts.
func (s *Sharded) Merged() Snapshot {
	var out Snapshot
	if s == nil {
		return out
	}
	for _, r := range s.shards {
		out = MergeSnapshots(out, r.Snapshot())
	}
	return out
}

// MergeSnapshots combines two snapshots: counters sum, gauges merge by
// kind — GaugeKindMax takes the maximum, GaugeKindSum adds (a lag
// gauge must fold to 0 once every shard drains, which max-merging
// would forbid forever after any shard peaked) — and histograms with
// identical bounds sum bucket-wise taking the max of maxes (mismatched
// bounds keep a's buckets — bounds are fixed per metric name across the
// repo, so a mismatch means the inputs came from different schemas).
// Both inputs are sorted by name (the Snapshot contract) and the merge
// preserves that, so MergeSnapshots is associative and deterministic.
func MergeSnapshots(a, b Snapshot) Snapshot {
	var out Snapshot
	i, j := 0, 0
	for i < len(a.Counters) || j < len(b.Counters) {
		switch {
		case j == len(b.Counters) || (i < len(a.Counters) && a.Counters[i].Name < b.Counters[j].Name):
			out.Counters = append(out.Counters, a.Counters[i])
			i++
		case i == len(a.Counters) || b.Counters[j].Name < a.Counters[i].Name:
			out.Counters = append(out.Counters, b.Counters[j])
			j++
		default:
			out.Counters = append(out.Counters, CounterValue{
				Name:  a.Counters[i].Name,
				Value: a.Counters[i].Value + b.Counters[j].Value,
			})
			i++
			j++
		}
	}
	i, j = 0, 0
	for i < len(a.Gauges) || j < len(b.Gauges) {
		switch {
		case j == len(b.Gauges) || (i < len(a.Gauges) && a.Gauges[i].Name < b.Gauges[j].Name):
			out.Gauges = append(out.Gauges, a.Gauges[i])
			i++
		case i == len(a.Gauges) || b.Gauges[j].Name < a.Gauges[i].Name:
			out.Gauges = append(out.Gauges, b.Gauges[j])
			j++
		default:
			g := a.Gauges[i]
			switch g.Kind {
			case GaugeKindSum:
				g.Value += b.Gauges[j].Value
			default:
				if b.Gauges[j].Value > g.Value {
					g.Value = b.Gauges[j].Value
				}
			}
			out.Gauges = append(out.Gauges, g)
			i++
			j++
		}
	}
	i, j = 0, 0
	for i < len(a.Histograms) || j < len(b.Histograms) {
		switch {
		case j == len(b.Histograms) || (i < len(a.Histograms) && a.Histograms[i].Name < b.Histograms[j].Name):
			out.Histograms = append(out.Histograms, a.Histograms[i])
			i++
		case i == len(a.Histograms) || b.Histograms[j].Name < a.Histograms[i].Name:
			out.Histograms = append(out.Histograms, b.Histograms[j])
			j++
		default:
			out.Histograms = append(out.Histograms, mergeHist(a.Histograms[i], b.Histograms[j]))
			i++
			j++
		}
	}
	// The inputs honour the sorted-snapshot contract; re-sorting costs
	// little and keeps the output canonical even if a caller hand-built
	// an unsorted snapshot.
	sort.Slice(out.Counters, func(x, y int) bool { return out.Counters[x].Name < out.Counters[y].Name })
	sort.Slice(out.Gauges, func(x, y int) bool { return out.Gauges[x].Name < out.Gauges[y].Name })
	sort.Slice(out.Histograms, func(x, y int) bool { return out.Histograms[x].Name < out.Histograms[y].Name })
	return out
}

func mergeHist(a, b HistogramValue) HistogramValue {
	if len(a.Bounds) != len(b.Bounds) {
		return a
	}
	for k := range a.Bounds {
		if a.Bounds[k] != b.Bounds[k] {
			return a
		}
	}
	out := HistogramValue{
		Name:   a.Name,
		Bounds: append([]int64(nil), a.Bounds...),
		Counts: append([]uint64(nil), a.Counts...),
		Max:    a.Max,
	}
	for k := range b.Counts {
		if k < len(out.Counts) {
			out.Counts[k] += b.Counts[k]
		}
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}
