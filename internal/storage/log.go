// Package storage implements the broker-side partition log: an
// append-only sequence of records organised into base-offset segments,
// exactly the on-disk structure Kafka brokers use, kept in memory here
// because the testbed is a simulation. Offsets are assigned at append
// time and never reused; reads address records by offset.
package storage

import (
	"errors"
	"fmt"

	"kafkarel/internal/wire"
)

// Log errors.
var (
	// ErrOffsetOutOfRange is returned by Read when the requested offset
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
	records []wire.Record
}

// Log is a single partition's append-only record log. The zero value is
// not usable; create logs with NewLog.
type Log struct {
	segments   []segment
	end        int64 // log end offset: next offset to assign
	flushed    int64 // offsets below this survived the last fsync
	maxSegment int
}

// DefaultSegmentRecords is the roll threshold when NewLog is given a
// non-positive one.
const DefaultSegmentRecords = 4096

// minSegmentRecords is the capacity of a log's first segments. A short
// run's log (a few hundred records, thousands of logs per campaign) must
// not pay for a full-size segment it never fills.
const minSegmentRecords = 64

// NewLog creates an empty log rolling segments at up to
// maxSegmentRecords records.
func NewLog(maxSegmentRecords int) *Log {
	if maxSegmentRecords <= 0 {
		maxSegmentRecords = DefaultSegmentRecords
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
	if n > l.maxSegment {
		n = l.maxSegment
	}
	return n
}

// Append assigns consecutive offsets to the records and stores them,
// returning the base offset of the batch. Appending zero records returns
// the current log end.
//
// The log takes ownership of the payload bytes and stores them without
// copying: they must never change after Append returns. The records slice
// itself is copied and may be reused. Any number of logs (a partition's
// replicas) may own the same immutable bytes; a caller holding records
// decoded zero-copy from a reused buffer clones them once
// (wire.Slab.Clone) before the first Append.
func (l *Log) Append(records []wire.Record) int64 {
	base := l.end
	for len(records) > 0 {
		n := len(l.segments)
		if n == 0 || len(l.segments[n-1].records) == cap(l.segments[n-1].records) {
			l.segments = append(l.segments, segment{
				base:    l.end,
				records: make([]wire.Record, 0, l.segmentCap()),
			})
			n++
		}
		seg := &l.segments[n-1]
		fit := records
		if room := cap(seg.records) - len(seg.records); len(fit) > room {
			fit = fit[:room]
		}
		// Within capacity: slots a TruncateTo vacated are overwritten in
		// place, nothing moves.
		seg.records = append(seg.records, fit...)
		l.end += int64(len(fit))
		records = records[len(fit):]
	}
	return base
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

// View returns the contiguous run of up to max records stored at offset,
// as a capacity-capped sub-slice of the segment that holds offset: no
// record is copied. The run ends where that segment does, so it can be
// shorter than max with more records stored behind it; a reader that
// wants them calls View again at the next offset. Viewing exactly at the
// log end returns an empty run; past it is an error.
//
// The run aliases the log's own slots. It is valid until the log is next
// truncated below the run's end and appended to again, which overwrites
// those slots in place: consume or copy it before handing control back
// to anything that may do that.
func (l *Log) View(offset int64, max int) ([]wire.Record, error) {
	if offset < l.start() || offset > l.end {
		return nil, fmt.Errorf("%w: offset %d, log [%d, %d)", ErrOffsetOutOfRange, offset, l.start(), l.end)
	}
	if max <= 0 || offset == l.end {
		return nil, nil
	}
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
	run := seg.records[offset-seg.base:]
	if len(run) > max {
		run = run[:max]
	}
	return run[:len(run):len(run)], nil
}

// ReadInto returns up to max records starting at offset in a
// caller-provided scratch slice (reading exactly at the log end returns
// an empty slice; reading past it is an error): entries are appended to
// dst[:0], so a steady-state reader allocates nothing once
// its scratch has grown. Returned entries hold copies of the record
// headers; their payloads alias the log's stored bytes and stay valid for
// the life of the log.
func (l *Log) ReadInto(offset int64, max int, dst []Entry) ([]Entry, error) {
	run, err := l.View(offset, max)
	if err != nil || len(run) == 0 {
		return nil, err
	}
	// Size by what is actually available, not the caller's ceiling: a
	// fetch asking for 2048 records from a near-empty log should not
	// reserve 2048 entries.
	if avail := int(l.end - offset); max > avail {
		max = avail
	}
	out := dst[:0]
	if cap(out) == 0 {
		out = make([]Entry, 0, max)
	}
	for {
		for i := range run {
			out = append(out, Entry{Offset: offset + int64(i), Record: run[i]})
		}
		offset += int64(len(run))
		if len(out) == max {
			return out, nil
		}
		// The run stopped at a segment boundary; the next one starts there.
		if run, err = l.View(offset, max-len(out)); err != nil {
			return nil, err
		}
	}
}

// TruncateTo discards all records at or beyond offset, used by follower
// replicas reconciling with a new leader. A segment cut short keeps its
// backing array: later appends refill the vacated slots in place.
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
		last.records = last.records[:offset-last.base]
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
		for j := range seg.records {
			if !fn(Entry{Offset: seg.base + int64(j), Record: seg.records[j]}) {
				return
			}
		}
	}
}
