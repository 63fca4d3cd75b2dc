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

// segment holds a contiguous run of records starting at base.
type segment struct {
	base    int64
	records []wire.Record
}

// Log is a single partition's append-only record log. The zero value is
// not usable; create logs with NewLog.
type Log struct {
	segments   []*segment
	end        int64 // log end offset: next offset to assign
	flushed    int64 // offsets below this survived the last fsync
	maxSegment int
	bytes      uint64
}

// DefaultSegmentRecords is the roll threshold when NewLog is given a
// non-positive one.
const DefaultSegmentRecords = 4096

// NewLog creates an empty log rolling segments every maxSegmentRecords
// records.
func NewLog(maxSegmentRecords int) *Log {
	if maxSegmentRecords <= 0 {
		maxSegmentRecords = DefaultSegmentRecords
	}
	return &Log{maxSegment: maxSegmentRecords}
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
// (wire.CloneRecords) before the first Append.
func (l *Log) Append(records []wire.Record) int64 {
	base := l.end
	for len(records) > 0 {
		n := len(l.segments)
		if n == 0 || len(l.segments[n-1].records) >= l.maxSegment {
			l.segments = append(l.segments, &segment{base: l.end})
			n++
		}
		seg := l.segments[n-1]
		fit := records
		if room := l.maxSegment - len(seg.records); len(fit) > room {
			fit = fit[:room]
		}
		seg.records = append(seg.records, fit...)
		for i := range fit {
			l.bytes += uint64(fit[i].EncodedSize())
		}
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

// Bytes returns the total encoded size of stored records.
func (l *Log) Bytes() uint64 { return l.bytes }

// Segments returns the number of segments currently held.
func (l *Log) Segments() int { return len(l.segments) }

// Read returns up to max records starting at offset. Reading exactly at
// the log end returns an empty slice; reading past it is an error.
func (l *Log) Read(offset int64, max int) ([]Entry, error) {
	return l.ReadInto(offset, max, nil)
}

// ReadInto is Read with a caller-provided scratch slice: entries are
// appended to dst[:0], so a steady-state reader allocates nothing once
// its scratch has grown. Returned entries alias the log's stored records
// and stay valid for the life of the log.
func (l *Log) ReadInto(offset int64, max int, dst []Entry) ([]Entry, error) {
	if offset < l.start() || offset > l.end {
		return nil, fmt.Errorf("%w: offset %d, log [%d, %d)", ErrOffsetOutOfRange, offset, l.start(), l.end)
	}
	if max <= 0 || offset == l.end {
		return nil, nil
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
	for _, seg := range l.findSegments(offset) {
		// Only the first segment starts mid-way; later ones start at
		// their base, where offset has already been passed.
		first := 0
		if offset > seg.base {
			first = int(offset - seg.base)
		}
		recs := seg.records[first:]
		if room := max - len(out); len(recs) > room {
			recs = recs[:room]
		}
		o := seg.base + int64(first)
		for i := range recs {
			out = append(out, Entry{Offset: o + int64(i), Record: recs[i]})
		}
		if len(out) == max {
			break
		}
	}
	return out, nil
}

// findSegments returns the suffix of segments containing offset onward.
func (l *Log) findSegments(offset int64) []*segment {
	// Binary search over segment bases.
	lo, hi := 0, len(l.segments)
	for lo < hi {
		mid := (lo + hi) / 2
		seg := l.segments[mid]
		if seg.base+int64(len(seg.records)) <= offset {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l.segments[lo:]
}

// TruncateTo discards all records at or beyond offset, used by follower
// replicas reconciling with a new leader.
func (l *Log) TruncateTo(offset int64) {
	if offset >= l.end {
		return
	}
	if l.flushed > offset {
		l.flushed = offset
	}
	if offset <= l.start() {
		l.segments = nil
		l.end = offset
		l.recountBytes()
		return
	}
	keep := make([]*segment, 0, len(l.segments))
	for _, seg := range l.segments {
		segEnd := seg.base + int64(len(seg.records))
		switch {
		case segEnd <= offset:
			keep = append(keep, seg)
		case seg.base < offset:
			seg.records = seg.records[:offset-seg.base]
			keep = append(keep, seg)
		}
	}
	l.segments = keep
	l.end = offset
	l.recountBytes()
}

func (l *Log) recountBytes() {
	l.bytes = 0
	for _, seg := range l.segments {
		for _, r := range seg.records {
			l.bytes += uint64(r.EncodedSize())
		}
	}
}

// Scan calls fn for every stored entry in offset order; fn returning
// false stops the scan.
func (l *Log) Scan(fn func(Entry) bool) {
	for _, seg := range l.segments {
		for i, r := range seg.records {
			if !fn(Entry{Offset: seg.base + int64(i), Record: r}) {
				return
			}
		}
	}
}
