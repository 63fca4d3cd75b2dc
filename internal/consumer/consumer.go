// Package consumer implements the verification side of the paper's
// testbed (Sec. III-E): after the producer finishes and fault injection
// stops, a consumer reads every message in the topic and reconciles the
// set of unique message keys against the source data, yielding the
// ground-truth loss and duplicate counts N_l and N_d from which
// P_l = N_l/N and P_d = N_d/N are computed (Sec. III-F).
package consumer

import (
	"fmt"
	"sort"

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
	// Foreign counts records with keys outside 1..N (corruption guard;
	// always zero in a healthy run).
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
// slice per partition, as produced by Group.ConsumedKeys. It is Tally
// generalised from the single span 1..N to a union of spans: a key
// inside some range counts toward Distinct/NDuplicated, a key outside
// every range is Foreign, and NLost is the total range size minus the
// distinct keys seen. Ranges must be disjoint; order does not matter.
func ReconcileRangesKeys(ranges []KeyRange, keys [][]uint64) Report {
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
		// Find the last range with Base < k; k belongs to it iff
		// k <= Base+Count.
		i := sort.Search(len(sorted), func(i int) bool { return sorted[i].Base >= k })
		if i == 0 {
			return false
		}
		r := sorted[i-1]
		return k <= r.Base+r.Count
	}
	total := 0
	for _, ks := range keys {
		total += len(ks)
	}
	seen := make(map[uint64]uint64, total)
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

// Tally reconciles a stream of consumed records against the contiguous
// source key space 1..sourceCount without holding the records: one
// counter per source key, so verifying a run costs four bytes per message
// produced however many copies the topic holds.
type Tally struct {
	copies  []uint32 // copies[k-1] counts deliveries of source key k
	foreign uint64
}

// NewTally creates an empty tally over source keys 1..sourceCount.
func NewTally(sourceCount uint64) *Tally {
	return &Tally{copies: make([]uint32, sourceCount)}
}

// Add counts a run of consumed records.
func (t *Tally) Add(records []wire.Record) {
	for i := range records {
		if k := records[i].Key - 1; k < uint64(len(t.copies)) { // key 0 wraps past the end
			t.copies[k]++
		} else {
			t.foreign++
		}
	}
}

// Report returns the reconciliation of everything added so far.
func (t *Tally) Report() Report {
	rep := Report{SourceCount: uint64(len(t.copies)), Foreign: t.foreign}
	for _, n := range t.copies {
		if n > 0 {
			rep.Distinct++
		}
		if n > 1 {
			rep.NDuplicated++
			rep.ExtraCopies += uint64(n - 1)
		}
	}
	rep.NLost = rep.SourceCount - rep.Distinct
	return rep
}
