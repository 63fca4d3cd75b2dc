package consumer

import (
	"maps"
	"sort"
	"testing"

	"kafkarel/internal/wire"
)

func keysOf(keys ...uint64) []wire.Record {
	recs := make([]wire.Record, len(keys))
	for i, k := range keys {
		recs[i] = wire.Record{Key: k}
	}
	return recs
}

// reconcileRanges is ReconcileRangesKeys over one stream of records.
func reconcileRanges(ranges []KeyRange, records []wire.Record) Report {
	keys := make([]uint64, len(records))
	for i, rec := range records {
		keys[i] = rec.Key
	}
	return ReconcileRangesKeys(ranges, [][]uint64{keys})
}

// TestReconcileRangesMatchesReconcile pins the degenerate case: one
// range based at zero must reproduce the plain Tally exactly.
func TestReconcileRangesMatchesReconcile(t *testing.T) {
	recs := keysOf(1, 2, 2, 4, 9)
	got := reconcileRanges([]KeyRange{{Base: 0, Count: 5}}, recs)
	want := reconcile(5, recs)
	if got != want {
		t.Errorf("ReconcileRangesKeys = %+v, Tally = %+v", got, want)
	}
}

// TestReconcileRangesMultiProducer reconciles three producers with
// disjoint (and deliberately non-contiguous) ranges: losses inside a
// range, duplicates, and keys in the gap between ranges.
func TestReconcileRangesMultiProducer(t *testing.T) {
	ranges := []KeyRange{
		{Base: 0, Count: 3},    // keys 1..3
		{Base: 100, Count: 2},  // keys 101..102
		{Base: 1000, Count: 0}, // producer that never acquired anything
	}
	recs := keysOf(
		1, 2, 2, // producer 1: key 3 lost, key 2 duplicated
		101, 102, // producer 2: complete
		50,   // gap between ranges: foreign
		2000, // beyond every range: foreign
		0,    // key 0 is always foreign
	)
	rep := reconcileRanges(ranges, recs)
	if rep.SourceCount != 5 {
		t.Errorf("SourceCount = %d, want 5", rep.SourceCount)
	}
	if rep.Distinct != 4 {
		t.Errorf("Distinct = %d, want 4", rep.Distinct)
	}
	if rep.NLost != 1 {
		t.Errorf("NLost = %d, want 1 (key 3)", rep.NLost)
	}
	if rep.NDuplicated != 1 || rep.ExtraCopies != 1 {
		t.Errorf("NDuplicated = %d ExtraCopies = %d, want 1/1", rep.NDuplicated, rep.ExtraCopies)
	}
	if rep.Foreign != 3 {
		t.Errorf("Foreign = %d, want 3 (keys 50, 2000, 0)", rep.Foreign)
	}
}

// TestReconcileRangesBoundaries probes the exact edges: Base is outside
// its own range, Base+1 and Base+Count are inside, Base+Count+1 is out.
func TestReconcileRangesBoundaries(t *testing.T) {
	ranges := []KeyRange{{Base: 10, Count: 5}} // keys 11..15
	rep := reconcileRanges(ranges, keysOf(10, 11, 15, 16))
	if rep.Foreign != 2 {
		t.Errorf("Foreign = %d, want 2 (keys 10 and 16)", rep.Foreign)
	}
	if rep.Distinct != 2 {
		t.Errorf("Distinct = %d, want 2 (keys 11 and 15)", rep.Distinct)
	}
	// Adjacent ranges: 1..3 and 4..6 — key 4 belongs to the second.
	adj := []KeyRange{{Base: 0, Count: 3}, {Base: 3, Count: 3}}
	rep = reconcileRanges(adj, keysOf(3, 4))
	if rep.Foreign != 0 || rep.Distinct != 2 {
		t.Errorf("adjacent ranges: %+v, want 2 distinct 0 foreign", rep)
	}
}

// reconcileRangesByMap is the reference ReconcileRangesKeys replaced:
// sort the ranges, find each key's range by binary search, and count the
// in-range keys in a map.
func reconcileRangesByMap(ranges []KeyRange, keys [][]uint64) Report {
	sorted := make([]KeyRange, 0, len(ranges))
	var rep Report
	for _, r := range ranges {
		rep.SourceCount += r.Count
		if r.Count > 0 {
			sorted = append(sorted, r)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	inRange := func(k uint64) bool {
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Base >= k })
		if i == 0 {
			return false
		}
		r := sorted[i-1]
		return k <= r.Base+r.Count
	}
	seen := make(map[uint64]uint64)
	for _, ks := range keys {
		for _, k := range ks {
			if k == 0 || !inRange(k) {
				rep.Foreign++
				continue
			}
			seen[k]++
		}
	}
	rep.Distinct = uint64(len(seen))
	rep.NLost = rep.SourceCount - rep.Distinct
	for _, n := range seen {
		if n > 1 {
			rep.NDuplicated++
			rep.ExtraCopies += n - 1
		}
	}
	return rep
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzKeyRanges checks the dense Tally against the map-based reconciler
// and against a plain map of key counts. The fuzz bytes build up to eight
// disjoint ranges in shuffled order — adjacent or apart, empty ones among
// them, optionally the last ending at the top of the key space — then
// partitions of consumed keys: keys inside the ranges, repeats of earlier
// keys, key 0, keys in the gaps, and keys past every range.
func FuzzKeyRanges(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 5, 3, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 0, 3, 2, 5, 0, 7, 0, 0, 2, 40, 1, 9, 2, 0, 130, 131, 200, 201, 6, 60})
	f.Add([]byte{0x85, 10, 20, 0, 0, 4, 16, 1, 3, 12, 1, 40, 220, 250, 255, 2, 150, 160, 170, 180})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		head := in.next()
		var ranges []KeyRange
		base := uint64(0)
		for i := 0; i < int(head&7); i++ {
			base += uint64(in.next() % 16) // 0: adjacent to the previous range
			c := uint64(in.next() % 24)    // 0: a producer that acquired nothing
			ranges = append(ranges, KeyRange{Base: base, Count: c})
			base += c
		}
		if head&0x80 != 0 && len(ranges) > 0 { // the last range ends at the top key
			r := &ranges[len(ranges)-1]
			r.Base = ^uint64(0) - r.Count
		}
		rot := int(in.next())
		for i := 0; i < rot%(len(ranges)+1); i++ { // shuffle: the order must not matter
			ranges = append(ranges[1:], ranges[0])
		}
		var all []uint64
		for _, r := range ranges {
			for k := r.Base + 1; k-r.Base <= r.Count && k > r.Base; k++ {
				all = append(all, k)
			}
		}
		keys := make([][]uint64, 1+int(head>>3&3))
		for len(in) > 0 {
			op, arg := in.next(), in.next()
			p := int(op>>5) % len(keys)
			var k uint64
			switch {
			case op&7 == 0:
				k = 0
			case op&7 == 1:
				k = base + uint64(arg) // in a gap, in a range or past them all
			case op&7 == 2:
				k = ^uint64(0) - uint64(arg%4)
			case op&7 == 3 && len(keys[p]) > 0:
				k = keys[p][int(arg)%len(keys[p])]
			case len(all) > 0:
				k = all[int(arg)%len(all)]
			default:
				k = uint64(arg)
			}
			keys[p] = append(keys[p], k)
		}

		if got, want := ReconcileRangesKeys(ranges, keys), reconcileRangesByMap(ranges, keys); got != want {
			t.Fatalf("ranges %v keys %v: dense %+v, map %+v", ranges, keys, got, want)
		}
		tally := NewRangeTally(ranges)
		counts := map[uint64]uint32{}
		for _, ks := range keys {
			tally.AddKeys(ks)
			for _, k := range ks {
				counts[k]++
			}
		}
		probe := append(append([]uint64{0, 1, base, base + 1, ^uint64(0)}, all...), keys[0]...)
		for _, k := range probe {
			if got := tally.Get(k); got != counts[k] {
				t.Fatalf("ranges %v: Get(%d) = %d, counted %d", ranges, k, got, counts[k])
			}
		}
		visited := map[uint64]uint32{}
		tally.Each(func(k uint64, v uint32) {
			if _, dup := visited[k]; dup {
				t.Fatalf("Each visited key %d twice", k)
			}
			visited[k] = v
		})
		if !maps.Equal(visited, counts) {
			t.Fatalf("ranges %v: Each visited %v, counted %v", ranges, visited, counts)
		}
		// A clone's values are its own: clearing them leaves the tally's.
		want := tally.Report()
		clone := tally.Clone()
		for k := range counts {
			clone.Set(k, 0)
		}
		clone.Each(func(k uint64, v uint32) { t.Fatalf("cleared clone still holds key %d = %d", k, v) })
		if got := tally.Report(); got != want {
			t.Fatalf("clearing a clone changed the tally: %+v, was %+v", got, want)
		}
	})
}
