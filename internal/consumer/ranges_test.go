package consumer

import (
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
