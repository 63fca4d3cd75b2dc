// Package storage implements the broker-side partition log: an
// append-only sequence of records organised into base-offset segments,
// exactly the on-disk structure Kafka brokers use, kept in memory here
// because the testbed is a simulation. Offsets are assigned at append
// time and never reused; reads address records by offset.
//
// A log stores each record once, by reference: a slot is a pointer to
// the immutable record the producer handed over, so a partition's
// replicas (and a recovered broker's caught-up copy) index one record.
// Reads copy records out into the caller's scratch; nothing a reader
// holds aliases a slot.
package storage

import (
	"errors"
	"fmt"
	"slices"

	"kafkarel/internal/wire"
)

// Log errors.
var (
	// ErrOffsetOutOfRange is returned by reads when the requested offset
	// is negative or past the log end.
	ErrOffsetOutOfRange = errors.New("storage: offset out of range")
)

// Entry is a stored record with its assigned offset.
type Entry struct {
	Offset int64
	Record wire.Record
}

// segment holds a contiguous run of records starting at base. Its
// backing array is allocated once, at the capacity the schedule in
// segmentCap gave it, and never regrows: the segment is full, and the
// log rolls, when len(records) == cap(records). Only the last segment
// of a log can be short of full.
type segment struct {
	base    int64
	records []*wire.Record
	// sums holds a hash of each stored record, parallel to records, in
	// race builds only (verifyShared); it is nil otherwise.
	sums []uint64
}

// Log is a single partition's append-only record log. The zero value is
// an empty log rolling segments at defaultSegmentRecords, so a log can
// live by value inside its owner; NewLog sets another roll threshold.
type Log struct {
	segments   []segment
	end        int64 // log end offset: next offset to assign
	flushed    int64 // offsets below this survived the last fsync
	maxSegment int
}

// defaultSegmentRecords is the roll threshold when NewLog is given a
// non-positive one.
const defaultSegmentRecords = 4096

// minSegmentRecords is the capacity of a log's first segments. A short
// run's log (a few hundred records, thousands of logs per campaign) must
// not pay for a full-size segment it never fills.
const minSegmentRecords = 64

// NewLog creates an empty log rolling segments at up to
// maxSegmentRecords records.
func NewLog(maxSegmentRecords int) *Log {
	if maxSegmentRecords <= 0 {
		maxSegmentRecords = defaultSegmentRecords
	}
	return &Log{maxSegment: maxSegmentRecords}
}

// segmentCap is the capacity schedule: each new segment is as large as
// everything the log already holds (64, 64, 128, 256, ...), bounded by
// minSegmentRecords below and maxSegment above. Allocated slots therefore
// never exceed twice the stored records plus the first segment, and
// nothing stored is ever copied to a larger array.
func (l *Log) segmentCap() int {
	n := int(l.Len())
	if n < minSegmentRecords {
		n = minSegmentRecords
	}
	limit := l.maxSegment
	if limit == 0 {
		limit = defaultSegmentRecords
	}
	return min(n, limit)
}

// firstSegments is the capacity of a log's segment list when it makes its
// first segment: the schedule in segmentCap holds the records of a short
// run's log (a few hundred) in four segments, which would otherwise take
// the list through three appends that each copy it.
const firstSegments = 4

// tail returns the last segment and how many more records it holds,
// rolling a new segment when the last one is full.
func (l *Log) tail() (*segment, int) {
	n := len(l.segments)
	if n == 0 || len(l.segments[n-1].records) == cap(l.segments[n-1].records) {
		c := l.segmentCap()
		seg := segment{base: l.end, records: make([]*wire.Record, 0, c)}
		if verifyShared {
			seg.sums = make([]uint64, 0, c)
		}
		if l.segments == nil {
			l.segments = make([]segment, 0, firstSegments)
		}
		l.segments = append(l.segments, seg)
		n++
	}
	seg := &l.segments[n-1]
	return seg, cap(seg.records) - len(seg.records)
}

// Append assigns consecutive offsets to the records and stores them,
// returning the base offset of the batch. Appending zero records returns
// the current log end.
//
// The log stores a reference to each record, not a copy: from the call
// on, the records — headers and payload bytes alike, and so the backing
// array of records itself — belong to the log and must never be written
// again. Any number of logs (a partition's replicas) may hold the same
// records. A caller holding records decoded zero-copy from a reused
// buffer clones them once (wire.Slab.Clone) before the first Append.
// Race builds hash every record here and recheck it on every read, so a
// write after Append panics naming the log and offset.
func (l *Log) Append(records []wire.Record) int64 {
	base := l.end
	for len(records) > 0 {
		seg, room := l.tail()
		fit := records[:min(len(records), room)]
		for i := range fit {
			seg.records = append(seg.records, &fit[i])
			if verifyShared {
				seg.sums = append(seg.sums, sum(&fit[i]))
			}
		}
		l.end += int64(len(fit))
		records = records[len(fit):]
	}
	return base
}

// CatchUp makes l a replica of leader: it truncates l at the first offset
// whose record is not the leader's (or at the leader's end), then appends
// the leader's records from there on, by reference — the two logs then
// hold the same records. Replicas share record references, so a record a
// stale leader wrote to l alone differs from the leader's by pointer. It
// is an error when l ends before the leader's first stored offset.
func (l *Log) CatchUp(leader *Log) error {
	l.TruncateTo(l.sharedEnd(leader))
	n, err := leader.span(l.end, int(leader.end-l.end))
	if err != nil {
		return err
	}
	for n > 0 {
		run, sums := leader.run(l.end, n)
		seg, room := l.tail()
		run = run[:min(len(run), room)]
		leader.check(l.end, run, sums)
		seg.records = append(seg.records, run...)
		if verifyShared {
			seg.sums = append(seg.sums, sums[:len(run)]...)
		}
		l.end += int64(len(run))
		n -= len(run)
	}
	return nil
}

// sharedEnd returns the first offset at which l and leader hold different
// records, or the lower of their ends where they agree throughout.
func (l *Log) sharedEnd(leader *Log) int64 {
	off, end := max(l.start(), leader.start()), min(l.end, leader.end)
	for off < end {
		mine, _ := l.run(off, int(end-off))
		theirs, _ := leader.run(off, len(mine))
		for i, r := range theirs {
			if mine[i] != r {
				return off + int64(i)
			}
		}
		off += int64(len(theirs))
	}
	return end
}

// End returns the log end offset (the offset the next record will get).
func (l *Log) End() int64 { return l.end }

// Flush marks everything currently stored as durable, modelling an fsync
// of the active segment. An unclean restart truncates back to the
// flushed offset; a clean shutdown flushes first.
func (l *Log) Flush() { l.flushed = l.end }

// Flushed returns the durable high-water offset: records at or beyond it
// are lost if the broker crashes before the next Flush.
func (l *Log) Flushed() int64 { return l.flushed }

// Len returns the number of stored records.
func (l *Log) Len() int64 { return l.end - l.start() }

func (l *Log) start() int64 {
	if len(l.segments) == 0 {
		return l.end
	}
	return l.segments[0].base
}

// span checks that offset lies in [start, end] and returns how many
// records a read of up to n from it finds.
func (l *Log) span(offset int64, n int) (int, error) {
	if offset < l.start() || offset > l.end {
		return 0, fmt.Errorf("%w: offset %d, log [%d, %d)", ErrOffsetOutOfRange, offset, l.start(), l.end)
	}
	return int(min(int64(max(n, 0)), l.end-offset)), nil
}

// run returns the references stored from offset to the end of the
// segment holding it, at most n of them, with their hashes (nil outside
// race builds). offset must lie in [start, end).
func (l *Log) run(offset int64, n int) ([]*wire.Record, []uint64) {
	// Binary search for the segment holding offset: the first whose end
	// lies beyond it.
	lo, hi := 0, len(l.segments)
	for lo < hi {
		mid := (lo + hi) / 2
		seg := &l.segments[mid]
		if seg.base+int64(len(seg.records)) <= offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	seg := &l.segments[lo]
	i := int(offset - seg.base)
	run := seg.records[i:min(len(seg.records), i+n)]
	if verifyShared {
		return run, seg.sums[i : i+len(run)]
	}
	return run, nil
}

// CopyOut appends copies of up to max records stored from offset on to
// dst and returns the extended slice, growing dst at most once; a reader
// that passes the same scratch back allocates nothing once it has grown.
// Reading exactly at the log end appends nothing; past it is an error.
// The copies' payloads are the stored, immutable bytes.
func (l *Log) CopyOut(dst []wire.Record, offset int64, max int) ([]wire.Record, error) {
	n, err := l.span(offset, max)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	for n > 0 {
		run, sums := l.run(offset, n)
		l.check(offset, run, sums)
		for _, r := range run {
			dst = append(dst, *r)
		}
		offset += int64(len(run))
		n -= len(run)
	}
	return dst, nil
}

// ReadInto returns up to max records starting at offset in a
// caller-provided scratch slice (reading exactly at the log end returns
// an empty slice; reading past it is an error): entries are appended to
// dst[:0], so a steady-state reader allocates nothing once its scratch
// has grown. Returned entries hold copies of the records, as CopyOut's;
// their payloads are the stored bytes.
func (l *Log) ReadInto(offset int64, max int, dst []Entry) ([]Entry, error) {
	n, err := l.span(offset, max)
	if err != nil || n == 0 {
		return nil, err
	}
	out := slices.Grow(dst[:0], n)
	for n > 0 {
		run, sums := l.run(offset, n)
		l.check(offset, run, sums)
		for i, r := range run {
			out = append(out, Entry{Offset: offset + int64(i), Record: *r})
		}
		offset += int64(len(run))
		n -= len(run)
	}
	return out, nil
}

// TruncateTo discards all records at or beyond offset, used by follower
// replicas reconciling with a new leader. A segment cut short keeps its
// backing array, which later appends refill; the references it drops are
// cleared, so a discarded record is not kept alive by its old slot.
func (l *Log) TruncateTo(offset int64) {
	if offset >= l.end {
		return
	}
	if l.flushed > offset {
		l.flushed = offset
	}
	keep := 0
	if offset > l.start() {
		for keep < len(l.segments) && l.segments[keep].base < offset {
			keep++
		}
		last := &l.segments[keep-1]
		cut := int(offset - last.base)
		clear(last.records[cut:])
		last.records = last.records[:cut]
		if verifyShared {
			last.sums = last.sums[:cut]
		}
	}
	// Drop the references so the discarded segments can be collected.
	for i := keep; i < len(l.segments); i++ {
		l.segments[i] = segment{}
	}
	l.segments = l.segments[:keep]
	l.end = offset
}

// Scan calls fn for every stored entry in offset order; fn returning
// false stops the scan.
func (l *Log) Scan(fn func(Entry) bool) {
	for i := range l.segments {
		seg := &l.segments[i]
		l.check(seg.base, seg.records, seg.sums)
		for j, r := range seg.records {
			if !fn(Entry{Offset: seg.base + int64(j), Record: *r}) {
				return
			}
		}
	}
}

// check is the race-build guard on the ownership contract (Append): it
// panics, naming the log and the offset, when a record of run — stored
// from offset on — no longer hashes to what it did when it was stored.
// Ordinary builds compile it away.
func (l *Log) check(offset int64, run []*wire.Record, sums []uint64) {
	if !verifyShared {
		return
	}
	for i, r := range run {
		if sum(r) != sums[i] {
			panic(fmt.Sprintf("storage: log %p: record at offset %d (key %d) was written after Append", l, offset+int64(i), r.Key))
		}
	}
}

// sum hashes a record's header and payload bytes (FNV-1a).
func sum(r *wire.Record) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range [3]uint64{r.Key, uint64(r.Timestamp), uint64(len(r.Payload))} {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (w >> s & 0xff)) * prime
		}
	}
	for _, b := range r.Payload {
		h = (h ^ uint64(b)) * prime
	}
	return h
}
