// Broker-side transaction bookkeeping. Each partition tracks, per
// producer id, the open transactional offset range plus the history of
// aborted ranges and control-marker offsets, exactly the state Kafka
// brokers rebuild from batch headers when they materialise the aborted-
// transaction index. The state is maintained inside Append, so follower
// replicas — which receive the same batches through replication —
// converge on the same view as the leader.
package broker

import (
	"sort"

	"kafkarel/internal/wire"
)

// TxnRange is a half-open offset interval [First, Next) holding one
// producer's transactional records.
type TxnRange struct {
	First, Next int64
}

// txnState is one partition's live transaction view. The zero value is
// an empty view, and every field is a slice of values, so copyFrom is a
// deep copy into the destination's storage.
type txnState struct {
	// ongoing holds per producer id the open (undecided) transaction's
	// offset range. Its minimum First is the partition's LSO.
	ongoing pidTable[TxnRange]
	// aborted holds decided-aborted data ranges, sorted by First. Records
	// inside them are invisible at read_committed.
	aborted []TxnRange
	// control holds the offsets of control-marker records, ascending.
	// Markers are filtered at both isolation levels.
	control []int64
	// epoch is the highest producer epoch seen per producer id; batches
	// carrying a lower epoch are zombies and are fenced.
	epoch pidTable[uint32]
}

// fence checks a transactional batch's epoch against the highest seen
// for its producer id, recording a new high. It reports whether the
// batch is a fenced zombie.
func (ts *txnState) fence(pid uint64, epoch uint32) bool {
	prev := ts.epoch.getOrAdd(pid)
	if epoch < *prev {
		return true
	}
	*prev = epoch
	return false
}

// extend opens or extends the producer's ongoing range with a data batch
// appended at [base, base+n).
func (ts *txnState) extend(pid uint64, base int64, n int) {
	rng := ts.ongoing.get(pid)
	if rng == nil {
		rng = ts.ongoing.getOrAdd(pid)
		rng.First = base
	}
	rng.Next = base + int64(n)
}

// applyMarker records a control marker appended at offset and closes the
// producer's ongoing range: commit makes it plainly visible, abort moves
// it to the aborted history. A marker with no ongoing range (a
// coordinator re-drive after a partial marker write) only records the
// control offset — re-driving markers is idempotent by construction.
func (ts *txnState) applyMarker(pid uint64, offset int64, commit bool) {
	ts.control = append(ts.control, offset)
	open := ts.ongoing.get(pid)
	if open == nil {
		return
	}
	rng := *open
	ts.ongoing.del(pid)
	if commit {
		return
	}
	i := sort.Search(len(ts.aborted), func(i int) bool { return ts.aborted[i].First >= rng.First })
	ts.aborted = append(ts.aborted, TxnRange{})
	copy(ts.aborted[i+1:], ts.aborted[i:])
	ts.aborted[i] = rng
}

// lso returns the last stable offset: everything below it is decided.
func (ts *txnState) lso(logEnd int64) int64 {
	lso := logEnd
	for i := range ts.ongoing {
		lso = min(lso, ts.ongoing[i].v.First)
	}
	return lso
}

// isControl reports whether offset holds a control marker.
func (ts *txnState) isControl(offset int64) bool {
	i := sort.Search(len(ts.control), func(i int) bool { return ts.control[i] >= offset })
	return i < len(ts.control) && ts.control[i] == offset
}

// isAborted reports whether offset lies inside a decided-aborted range.
func (ts *txnState) isAborted(offset int64) bool {
	i := sort.Search(len(ts.aborted), func(i int) bool { return ts.aborted[i].Next > offset })
	return i < len(ts.aborted) && ts.aborted[i].First <= offset
}

// filtered reports whether the record at offset must be hidden from a
// fetch at the given isolation level. Control markers are protocol
// internals and are hidden from everyone; aborted data is hidden only
// from read_committed readers.
func (ts *txnState) filtered(offset int64, iso wire.IsolationLevel) bool {
	if ts.isControl(offset) {
		return true
	}
	return iso == wire.ReadCommitted && ts.isAborted(offset)
}

// firstFiltered returns the lowest offset in [from, to) that filtered
// would hide at the isolation level, or to when there is none.
func (ts *txnState) firstFiltered(from, to int64, iso wire.IsolationLevel) int64 {
	if i := sort.Search(len(ts.control), func(i int) bool { return ts.control[i] >= from }); i < len(ts.control) && ts.control[i] < to {
		to = ts.control[i]
	}
	if iso == wire.ReadCommitted {
		// The first aborted range ending beyond from: it hides from, or
		// starts later.
		if i := sort.Search(len(ts.aborted), func(i int) bool { return ts.aborted[i].Next > from }); i < len(ts.aborted) {
			if first := ts.aborted[i].First; first <= from {
				to = from
			} else if first < to {
				to = first
			}
		}
	}
	return to
}

// copyFrom makes ts a deep copy of src in ts's own storage: the flush
// checkpoint, a crash restore and a catch-up from the leader rewrite the
// view in place, not reallocate it.
func (ts *txnState) copyFrom(src *txnState) {
	ts.ongoing = append(ts.ongoing[:0], src.ongoing...)
	ts.epoch = append(ts.epoch[:0], src.epoch...)
	ts.aborted = append(ts.aborted[:0], src.aborted...)
	ts.control = append(ts.control[:0], src.control...)
}
