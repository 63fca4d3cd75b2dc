// Package consumer implements the verification side of the paper's
// testbed (Sec. III-E): after the producer finishes and fault injection
// stops, a consumer reads every message in the topic and reconciles the
// set of unique message keys against the source data, yielding the
// ground-truth loss and duplicate counts N_l and N_d from which
// P_l = N_l/N and P_d = N_d/N are computed (Sec. III-F).
package consumer

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"kafkarel/internal/cluster"
	"kafkarel/internal/wire"
)

// Consumer drains one topic partition from the cluster. The paper
// consumes over a clean network (faults are stopped first), so the
// consumer calls the cluster directly rather than through the emulated
// path.
type Consumer struct {
	part      cluster.Partition
	isolation wire.IsolationLevel
}

// fetchMax is the records asked for per fetch. Brokers count fetch
// requests (broker.Stats.FetchRequests), so it shows in every result.
const fetchMax = 4096

// SetIsolation selects the fetch isolation level (default
// ReadUncommitted). At ReadCommitted the drain stops at the last stable
// offset and skips records from aborted transactions.
func (c *Consumer) SetIsolation(iso wire.IsolationLevel) { c.isolation = iso }

// New creates a consumer for the topic partition, resolving it once.
func New(c *cluster.Cluster, topic string, partition int32) (*Consumer, error) {
	if c == nil {
		return nil, fmt.Errorf("consumer: nil cluster")
	}
	part, ok := c.Partition(topic, partition)
	if !ok {
		return nil, fmt.Errorf("consumer: unknown topic partition %q/%d", topic, partition)
	}
	return &Consumer{part: part}, nil
}

// Consume fetches every record currently in the partition and hands each
// fetch's records to fn, in offset order. They are the broker's fetch
// scratch (broker.Partition.Fetch): fn must consume or copy them before
// returning and must not retain the slice.
func (c *Consumer) Consume(fn func([]wire.Record)) error {
	leader, ok := c.part.Leader()
	if !ok {
		return fmt.Errorf("consumer: no response (partition leaderless or its leader down)")
	}
	offset := int64(0)
	for {
		var resp wire.FetchResponse
		leader.Fetch(wire.FetchRequest{
			Offset:     offset,
			MaxRecords: fetchMax,
			Isolation:  c.isolation,
		}, func(r wire.FetchResponse) {
			if r.Err == wire.ErrNone && len(r.Records) > 0 {
				fn(r.Records)
			}
			resp = r
		})
		if resp.Err != wire.ErrNone {
			return fmt.Errorf("consumer: fetch at offset %d: %s", offset, resp.Err)
		}
		if len(resp.Records) == 0 && resp.NextOffset <= offset {
			if offset >= resp.HighWatermark ||
				(c.isolation == wire.ReadCommitted && offset >= resp.LastStable) {
				return nil
			}
			return fmt.Errorf("consumer: empty fetch below high watermark %d at %d", resp.HighWatermark, offset)
		}
		offset = resp.NextOffset
	}
}

// Report is the reconciliation of consumed records against source keys
// 1..SourceCount.
type Report struct {
	// SourceCount is N, the number of messages the source provided.
	SourceCount uint64
	// Distinct is the number of unique source keys that reached the log.
	Distinct uint64
	// NLost is N_l: source keys never delivered (Case 2 ∪ Case 3).
	NLost uint64
	// NDuplicated is N_d: source keys delivered more than once (Case 5).
	NDuplicated uint64
	// ExtraCopies is the total number of redundant record copies.
	ExtraCopies uint64
	// Foreign counts records with keys outside 1..N, or outside every
	// range of a multi-producer source (corruption guard; always zero in
	// a healthy run).
	Foreign uint64
}

// Add sums o into r — reconciliations over disjoint key spaces (one per
// independent simulation) add up field by field.
func (r *Report) Add(o Report) {
	r.SourceCount += o.SourceCount
	r.Distinct += o.Distinct
	r.NLost += o.NLost
	r.NDuplicated += o.NDuplicated
	r.ExtraCopies += o.ExtraCopies
	r.Foreign += o.Foreign
}

// Pl returns the ground-truth probability of message loss.
func (r Report) Pl() float64 {
	if r.SourceCount == 0 {
		return 0
	}
	return float64(r.NLost) / float64(r.SourceCount)
}

// Pd returns the ground-truth probability of message duplication.
func (r Report) Pd() float64 {
	if r.SourceCount == 0 {
		return 0
	}
	return float64(r.NDuplicated) / float64(r.SourceCount)
}

// KeyRange is one producer's key span within a shared topic: the
// producer emitted keys Base+1 .. Base+Count (see producer.Config's
// KeyBase). Count is how many keys the producer actually acquired, so
// a run cut off mid-stream leaves a gap *between* ranges, never inside
// one.
type KeyRange struct {
	Base  uint64
	Count uint64
}

// ReconcileRangesKeys reconciles the keys of records produced by several
// producers into one topic, each owning a disjoint KeyRange — one key
// slice per partition, as produced by Group.ConsumedKeys. A key inside
// some range counts toward Distinct/NDuplicated, a key outside every
// range is Foreign, and NLost is the total range size minus the distinct
// keys seen. Ranges must be disjoint; order does not matter.
func ReconcileRangesKeys(ranges []KeyRange, keys [][]uint64) Report {
	t := NewRangeTally(ranges)
	for _, ks := range keys {
		t.AddKeys(ks)
	}
	return t.Report()
}

// Tally holds one uint32 per key of a union of disjoint KeyRanges, and
// finds a key's value without hashing: the ranges' keys, concatenated in
// key order, index one slice, so key k of the range based at B whose
// first key sits at index s has index s+k-B-1. A key outside every range
// (key 0, a gap between ranges, past the last) goes to an overflow map;
// such a key is foreign, itself a violation, and a healthy run never
// allocates the map.
//
// As a counter (Add, AddKeys, Report) it reconciles a stream of consumed
// records against the source without holding the records: verifying a
// run costs four bytes per key produced however many copies the topic
// holds. Get and Set read and write the same values as a table indexed
// by key.
type Tally struct {
	// spans holds the non-empty ranges in key order when there are two
	// or more; hot is the one that held the last key found (keys come in
	// runs), and the only one when spans is nil.
	spans []keySpan
	hot   keySpan
	vals  []uint32
	over  map[uint64]uint32 // keys outside every range
}

// keySpan is a non-empty KeyRange and the index of its first key.
type keySpan struct {
	KeyRange
	start int
}

// has reports whether k is one of the span's keys.
func (s *keySpan) has(k uint64) bool { return k > s.Base && k-s.Base <= s.Count }

// NewTally creates an empty tally over source keys 1..sourceCount. It
// does not go through NewRangeTally so that it inlines: a caller's Tally
// can then live on its stack.
func NewTally(sourceCount uint64) *Tally {
	return &Tally{hot: keySpan{KeyRange: KeyRange{Count: sourceCount}}, vals: make([]uint32, sourceCount)}
}

// NewRangeTally creates an empty tally over the union of ranges, which
// must be disjoint and may come in any order. It holds four bytes per
// key of the union.
func NewRangeTally(ranges []KeyRange) *Tally {
	var one [1]keySpan // one range, the common case, allocates no spans
	spans := one[:0]
	for _, r := range ranges {
		if r.Count > 0 {
			spans = append(spans, keySpan{KeyRange: r})
		}
	}
	slices.SortFunc(spans, func(a, b keySpan) int { return cmp.Compare(a.Base, b.Base) })
	n := 0
	for i := range spans {
		spans[i].start = n
		n += int(spans[i].Count)
	}
	t := &Tally{vals: make([]uint32, n)}
	if len(spans) > 0 {
		t.hot = spans[0]
	}
	if len(spans) > 1 {
		t.spans = slices.Clone(spans)
	}
	return t
}

// index returns k's slot in vals, or false for a key outside every range.
func (t *Tally) index(k uint64) (int, bool) {
	if !t.hot.has(k) {
		// Only the last span based below k can hold it.
		s := t.spans
		i, _ := slices.BinarySearchFunc(s, k, func(sp keySpan, k uint64) int { return cmp.Compare(sp.Base, k) })
		if i == 0 || !s[i-1].has(k) {
			return 0, false
		}
		t.hot = s[i-1]
	}
	return t.hot.start + int(k-t.hot.Base-1), true
}

// Add counts a run of consumed records. A key of the hot span, nearly
// every key, is counted in the loop itself, with no call: counting a
// record costs what it did when a tally held only the span 1..N.
func (t *Tally) Add(records []wire.Record) {
	for i := range records {
		if k := records[i].Key; t.hot.has(k) {
			t.vals[t.hot.start+int(k-t.hot.Base-1)]++
		} else {
			t.incCold(k)
		}
	}
}

// AddKeys counts a run of consumed keys, as Add does.
func (t *Tally) AddKeys(keys []uint64) {
	for _, k := range keys {
		if t.hot.has(k) {
			t.vals[t.hot.start+int(k-t.hot.Base-1)]++
		} else {
			t.incCold(k)
		}
	}
}

// incCold counts a key outside the hot span.
func (t *Tally) incCold(k uint64) {
	if i, ok := t.index(k); ok {
		t.vals[i]++
		return
	}
	t.Set(k, t.over[k]+1)
}

// Get returns k's value: how often it was counted, or what Set stored.
func (t *Tally) Get(k uint64) uint32 {
	if i, ok := t.index(k); ok {
		return t.vals[i]
	}
	return t.over[k]
}

// Set stores v as k's value.
func (t *Tally) Set(k uint64, v uint32) {
	if i, ok := t.index(k); ok {
		t.vals[i] = v
		return
	}
	if t.over == nil {
		t.over = make(map[uint64]uint32)
	}
	t.over[k] = v
}

// Clone returns a copy of the tally whose values change independently.
// The two share their spans, which never change after NewRangeTally.
func (t *Tally) Clone() *Tally {
	return &Tally{spans: t.spans, hot: t.hot, vals: slices.Clone(t.vals), over: maps.Clone(t.over)}
}

// Each calls fn with every key whose value is not zero: the ranges' keys
// in key order, then the foreign ones in no particular order.
func (t *Tally) Each(fn func(k uint64, v uint32)) {
	spans := t.spans
	if spans == nil {
		spans = []keySpan{t.hot}
	}
	for _, s := range spans {
		for i, v := range t.vals[s.start : s.start+int(s.Count)] {
			if v != 0 {
				fn(s.Base+1+uint64(i), v)
			}
		}
	}
	for k, v := range t.over {
		if v != 0 {
			fn(k, v)
		}
	}
}

// Report returns the reconciliation of everything counted so far.
func (t *Tally) Report() Report {
	rep := Report{SourceCount: uint64(len(t.vals))}
	for _, n := range t.vals {
		if n > 0 {
			rep.Distinct++
		}
		if n > 1 {
			rep.NDuplicated++
			rep.ExtraCopies += uint64(n - 1)
		}
	}
	for _, n := range t.over {
		rep.Foreign += uint64(n)
	}
	rep.NLost = rep.SourceCount - rep.Distinct
	return rep
}
