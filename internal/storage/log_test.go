package storage

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"kafkarel/internal/wire"
)

func recs(keys ...uint64) []wire.Record {
	out := make([]wire.Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, wire.Record{Key: k, Payload: []byte{byte(k)}})
	}
	return out
}

func TestAppendAssignsConsecutiveOffsets(t *testing.T) {
	l := NewLog(0)
	if base := l.Append(recs(1, 2, 3)); base != 0 {
		t.Errorf("first base = %d, want 0", base)
	}
	if base := l.Append(recs(4)); base != 3 {
		t.Errorf("second base = %d, want 3", base)
	}
	if l.End() != 4 || l.Len() != 4 {
		t.Errorf("End/Len = %d/%d, want 4/4", l.End(), l.Len())
	}
}

func TestAppendEmptyBatch(t *testing.T) {
	l := NewLog(0)
	l.Append(recs(1))
	if base := l.Append(nil); base != 1 {
		t.Errorf("empty append base = %d, want 1", base)
	}
	if l.End() != 1 {
		t.Errorf("End = %d, want 1", l.End())
	}
}

func TestReadBasic(t *testing.T) {
	l := NewLog(0)
	l.Append(recs(10, 11, 12, 13, 14))
	got, err := l.ReadInto(1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d entries, want 3", len(got))
	}
	for i, e := range got {
		wantOffset := int64(1 + i)
		if e.Offset != wantOffset || e.Record.Key != uint64(11+i) {
			t.Errorf("entry %d = {%d, key %d}", i, e.Offset, e.Record.Key)
		}
	}
}

func TestReadAtEndReturnsEmpty(t *testing.T) {
	l := NewLog(0)
	l.Append(recs(1, 2))
	got, err := l.ReadInto(2, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("read %d entries at log end", len(got))
	}
	// Empty log: offset 0 == end.
	empty := NewLog(0)
	if _, err := empty.ReadInto(0, 5, nil); err != nil {
		t.Errorf("read at end of empty log: %v", err)
	}
}

func TestReadOutOfRange(t *testing.T) {
	l := NewLog(0)
	l.Append(recs(1))
	if _, err := l.ReadInto(-1, 1, nil); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Errorf("negative offset err = %v", err)
	}
	if _, err := l.ReadInto(2, 1, nil); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Errorf("past-end offset err = %v", err)
	}
}

func TestReadZeroMax(t *testing.T) {
	l := NewLog(0)
	l.Append(recs(1, 2))
	got, err := l.ReadInto(0, 0, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("Read(0,0) = %v, %v", got, err)
	}
}

func TestSegmentRolling(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 10; i++ {
		l.Append(recs(uint64(i)))
	}
	if len(l.segments) != 4 { // 3+3+3+1
		t.Errorf("segments = %d, want 4", len(l.segments))
	}
	// Cross-segment read.
	got, err := l.ReadInto(2, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("read %d, want 5", len(got))
	}
	for i, e := range got {
		if e.Record.Key != uint64(2+i) {
			t.Errorf("entry %d key = %d, want %d", i, e.Record.Key, 2+i)
		}
	}
}

func TestTruncateTo(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 10; i++ {
		l.Append(recs(uint64(i)))
	}
	l.TruncateTo(5)
	if l.End() != 5 || l.Len() != 5 {
		t.Errorf("End/Len after truncate = %d/%d, want 5/5", l.End(), l.Len())
	}
	got, err := l.ReadInto(0, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4].Record.Key != 4 {
		t.Errorf("post-truncate read = %d entries", len(got))
	}
	// Appending after truncation reuses the truncated offsets.
	if base := l.Append(recs(50)); base != 5 {
		t.Errorf("append after truncate base = %d, want 5", base)
	}
	// Truncate past end is a no-op.
	l.TruncateTo(100)
	if l.End() != 6 {
		t.Errorf("End after no-op truncate = %d", l.End())
	}
	// Truncate to zero empties the log.
	l.TruncateTo(0)
	if l.End() != 0 || l.Len() != 0 {
		t.Errorf("End/Len after full truncate = %d/%d", l.End(), l.Len())
	}
}

func TestScan(t *testing.T) {
	l := NewLog(2)
	l.Append(recs(0, 1, 2, 3, 4))
	var seen []int64
	l.Scan(func(e Entry) bool {
		seen = append(seen, e.Offset)
		return true
	})
	if len(seen) != 5 {
		t.Fatalf("scanned %d, want 5", len(seen))
	}
	for i, o := range seen {
		if o != int64(i) {
			t.Errorf("scan order broken: %v", seen)
		}
	}
	// Early stop.
	count := 0
	l.Scan(func(Entry) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early-stop scan visited %d, want 2", count)
	}
}

// Property: any sequence of appends and truncations keeps reads
// consistent with a plain-slice model.
func TestPropertyLogMatchesModel(t *testing.T) {
	f := func(seed uint64, ops uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		l := NewLog(rng.IntN(5) + 1)
		var model []uint64
		key := uint64(0)
		for op := 0; op < int(ops%40)+5; op++ {
			if rng.Float64() < 0.8 {
				n := rng.IntN(4) + 1
				batch := make([]wire.Record, 0, n)
				for i := 0; i < n; i++ {
					batch = append(batch, wire.Record{Key: key})
					model = append(model, key)
					key++
				}
				if got := l.Append(batch); got != int64(len(model)-n) {
					return false
				}
			} else if len(model) > 0 {
				cut := int64(rng.IntN(len(model) + 1))
				l.TruncateTo(cut)
				model = model[:cut]
			}
		}
		if l.End() != int64(len(model)) {
			return false
		}
		// Random read window.
		if len(model) > 0 {
			off := int64(rng.IntN(len(model)))
			max := rng.IntN(len(model)) + 1
			got, err := l.ReadInto(off, max, nil)
			if err != nil {
				return false
			}
			wantLen := len(model) - int(off)
			if wantLen > max {
				wantLen = max
			}
			if len(got) != wantLen {
				return false
			}
			for i, e := range got {
				if e.Offset != off+int64(i) || e.Record.Key != model[off+int64(i)] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	l := NewLog(0)
	r := recs(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Append(r)
	}
}

func BenchmarkReadMiddle(b *testing.B) {
	l := NewLog(1024)
	for i := 0; i < 100_000; i++ {
		l.Append(recs(uint64(i)))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.ReadInto(50_000, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFlushAndTruncateClamp(t *testing.T) {
	l := NewLog(4)
	l.Append(recs(1, 2, 3, 4, 5))
	if l.Flushed() != 0 {
		t.Fatalf("fresh log flushed = %d, want 0", l.Flushed())
	}
	l.Flush()
	if l.Flushed() != 5 {
		t.Fatalf("flushed = %d, want 5", l.Flushed())
	}
	l.Append(recs(6))
	if l.Flushed() != 5 {
		t.Fatalf("append moved flushed to %d", l.Flushed())
	}
	l.TruncateTo(3)
	if l.Flushed() != 3 {
		t.Fatalf("truncate left flushed at %d, want clamp to 3", l.Flushed())
	}
	if l.End() != 3 {
		t.Fatalf("end = %d, want 3", l.End())
	}
}

// Append stores references, not copies (the ownership contract in
// DESIGN.md): two logs appended one batch — a leader and its follower —
// hold pointer-equal records, payload bytes included. Reads copy out, so
// what a reader does with its copies never reaches the log.
func TestAppendOwnsPayloadsWithoutCopying(t *testing.T) {
	a, b := NewLog(0), NewLog(2)
	batch := []wire.Record{{Key: 1, Payload: []byte("first")}, {Key: 2, Payload: []byte("second")}, {Key: 3}}
	want := []string{"first", "second", ""}
	a.Append(batch)
	b.Append(batch)
	for _, l := range []*Log{a, b} {
		for i := range batch {
			if run, _ := l.run(int64(i), 1); len(run) != 1 || run[0] != &batch[i] {
				t.Errorf("offset %d does not reference the appended record", i)
			}
		}
		got, err := l.ReadInto(0, 3, nil)
		if err != nil || len(got) != 3 {
			t.Fatalf("read = %v, %v", got, err)
		}
		for i, e := range got {
			if e.Record.Key != uint64(i+1) || string(e.Record.Payload) != want[i] {
				t.Errorf("entry %d = {key %d, %q}", i, e.Record.Key, e.Record.Payload)
			}
		}
		if &got[0].Record.Payload[0] != &batch[0].Payload[0] {
			t.Error("log holds a private copy of the payload")
		}
		got[0].Record.Key = 99 // the reader's copy, not the log's
	}
	out, err := a.CopyOut(nil, 0, 3)
	if err != nil || len(out) != 3 || out[0].Key != 1 {
		t.Fatalf("copy-out after a reader wrote its copy = %v, %v", out, err)
	}
}

// Property: ReadInto from every offset of a multi-segment log — segment
// starts, mid-segment, the last record, the end — with assorted limits
// and a reused scratch slice returns exactly the model's window.
func TestPropertyReadIntoMatchesModelFromAnyOffset(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		l := NewLog(rng.IntN(7) + 1)
		var model []uint64
		for target := 20 + rng.IntN(30); len(model) < target; {
			batch := make([]wire.Record, rng.IntN(9)+1)
			for i := range batch {
				batch[i] = wire.Record{Key: uint64(len(model)), Payload: []byte{byte(len(model))}}
				model = append(model, batch[i].Key)
			}
			l.Append(batch)
		}
		if cut := rng.IntN(len(model)); rng.IntN(2) == 0 {
			l.TruncateTo(int64(cut))
			model = model[:cut]
		}
		var scratch []Entry
		for off := 0; off <= len(model); off++ {
			for _, max := range []int{1, 2, rng.IntN(len(model)+1) + 1, len(model) + 5} {
				got, err := l.ReadInto(int64(off), max, scratch)
				if err != nil {
					return false
				}
				want := model[off:]
				if len(want) > max {
					want = want[:max]
				}
				if len(got) != len(want) {
					return false
				}
				for i, e := range got {
					if e.Offset != int64(off+i) || e.Record.Key != want[i] ||
						len(e.Record.Payload) != 1 || e.Record.Payload[0] != byte(want[i]) {
						return false
					}
				}
				if got != nil {
					scratch = got
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// checkSegments asserts the fixed-capacity invariants: segments tile
// [start, end) without gaps, every segment but the last is full, no
// segment is empty, and capacities stay inside the schedule's bounds.
func checkSegments(t *testing.T, l *Log) {
	t.Helper()
	next := l.start()
	for i := range l.segments {
		seg := &l.segments[i]
		if seg.base != next {
			t.Fatalf("segment %d base = %d, want %d", i, seg.base, next)
		}
		if len(seg.records) == 0 {
			t.Fatalf("segment %d is empty", i)
		}
		if i < len(l.segments)-1 && len(seg.records) != cap(seg.records) {
			t.Fatalf("inner segment %d holds %d of %d", i, len(seg.records), cap(seg.records))
		}
		if c := cap(seg.records); c > l.maxSegment || (c < minSegmentRecords && c != l.maxSegment) {
			t.Fatalf("segment %d capacity %d outside the schedule (max %d)", i, c, l.maxSegment)
		}
		next += int64(len(seg.records))
	}
	if next != l.end {
		t.Fatalf("segments end at %d, log end %d", next, l.end)
	}
}

// Model-based property: random Append / TruncateTo / Flush interleavings
// on logs whose segments have mixed capacities (64, 64, 128, then the
// maximum) agree with a flat slice on every ReadInto and CopyOut —
// including appends that refill a segment a truncate cut short, and reads
// that straddle a segment boundary — and every offset references the
// record that was appended at it.
func TestPropertyFixedSegmentsMatchFlatModel(t *testing.T) {
	type stored struct {
		key uint64
		rec *wire.Record
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		l := NewLog([]int{5, 64, 100, 300}[rng.IntN(4)])
		var model []stored
		flushed := int64(0)
		key := uint64(0)
		var scratch []Entry
		for op := 0; op < 400; op++ {
			switch r := rng.IntN(20); {
			case r < 14: // append, now and then a batch larger than any segment
				n := rng.IntN(12) + 1
				if rng.IntN(25) == 0 {
					n = 150 + rng.IntN(400)
				}
				batch := make([]wire.Record, n)
				for i := range batch {
					key++
					batch[i] = wire.Record{Key: key, Payload: make([]byte, key%7)}
				}
				if base := l.Append(batch); base != int64(len(model)) {
					t.Fatalf("seed %d: append base %d, want %d", seed, base, len(model))
				}
				for i := range batch {
					model = append(model, stored{key: batch[i].Key, rec: &batch[i]})
				}
			case r < 17 && len(model) > 0: // truncate, usually into a segment
				cut := rng.IntN(len(model) + 1)
				l.TruncateTo(int64(cut))
				model = model[:cut]
				if flushed > int64(cut) {
					flushed = int64(cut)
				}
			case r < 18:
				l.Flush()
				flushed = int64(len(model))
			}
			checkSegments(t, l)
			if l.End() != int64(len(model)) || l.Len() != int64(len(model)) || l.Flushed() != flushed {
				t.Fatalf("seed %d op %d: end/len/flushed = %d/%d/%d, model %d/%d",
					seed, op, l.End(), l.Len(), l.Flushed(), len(model), flushed)
			}
			// One random window through both read paths and the stored
			// references.
			off := rng.IntN(len(model) + 1)
			max := rng.IntN(200) + 1
			want := model[off:]
			if len(want) > max {
				want = want[:max]
			}
			got, err := l.ReadInto(int64(off), max, scratch)
			if err != nil || len(got) != len(want) {
				t.Fatalf("seed %d op %d: ReadInto(%d, %d) = %d entries, %v; want %d", seed, op, off, max, len(got), err, len(want))
			}
			for i, e := range got {
				if e.Offset != int64(off+i) || e.Record.Key != want[i].key {
					t.Fatalf("seed %d op %d: entry %d = {%d, key %d}, want {%d, key %d}", seed, op, i, e.Offset, e.Record.Key, off+i, want[i].key)
				}
			}
			if got != nil {
				scratch = got
			}
			recs, err := l.CopyOut(nil, int64(off), max)
			if err != nil || len(recs) != len(want) {
				t.Fatalf("seed %d op %d: CopyOut(%d, %d) = %d records, %v; want %d", seed, op, off, max, len(recs), err, len(want))
			}
			for seen := 0; seen < len(want); {
				run, _ := l.run(int64(off+seen), len(want)-seen)
				if len(run) == 0 {
					t.Fatalf("seed %d op %d: empty run at %d", seed, op, off+seen)
				}
				for i, r := range run {
					if recs[seen+i].Key != want[seen+i].key || r != want[seen+i].rec {
						t.Fatalf("seed %d op %d: offset %d does not hold its record (key %d, want %d)", seed, op, off+seen+i, recs[seen+i].Key, want[seen+i].key)
					}
				}
				seen += len(run)
			}
		}
		if l.maxSegment > minSegmentRecords && len(l.segments) > 3 {
			caps := map[int]bool{}
			for i := range l.segments {
				caps[cap(l.segments[i].records)] = true
			}
			if len(caps) < 2 {
				t.Errorf("seed %d: %d segments all of one capacity", seed, len(l.segments))
			}
		}
	}
}

// The two cases the schedule exists for, spelled out: a truncate into a
// segment followed by an append refills that segment (same backing array,
// no new segment, the dropped references cleared), and a read across the
// boundary of two differently sized segments returns one contiguous
// window.
func TestTruncateIntoSegmentThenAppendRefillsIt(t *testing.T) {
	l := NewLog(0)
	batch := make([]wire.Record, 150) // segments of 64, 64, 128
	for i := range batch {
		batch[i] = wire.Record{Key: uint64(i)}
	}
	l.Append(batch)
	if len(l.segments) != 3 || cap(l.segments[2].records) != 128 {
		t.Fatalf("segments = %d, third capacity %d; want 3 and 128", len(l.segments), cap(l.segments[2].records))
	}
	backing := &l.segments[1].records[:cap(l.segments[1].records)][0]
	l.TruncateTo(100)
	if vacated := l.segments[1].records[36:64]; vacated[0] != nil || vacated[27] != nil {
		t.Error("truncate left references to the dropped records in the vacated slots")
	}
	re := []wire.Record{{Key: 1000}, {Key: 1001}}
	l.Append(re)
	if len(l.segments) != 2 || l.End() != 102 || &l.segments[1].records[0] != backing {
		t.Fatalf("segments/end = %d/%d; want the second segment refilled in place, end 102", len(l.segments), l.End())
	}
	if run, _ := l.run(100, 2); len(run) != 2 || run[0] != &re[0] || run[1] != &re[1] {
		t.Error("re-appended offsets do not reference the new records")
	}
	// Straddle the 64|64 boundary: both read paths cross it.
	got, err := l.ReadInto(60, 10, nil)
	if err != nil || len(got) != 10 {
		t.Fatalf("ReadInto(60, 10) = %d entries, %v", len(got), err)
	}
	recs, err := l.CopyOut(nil, 60, 10)
	if err != nil || len(recs) != 10 {
		t.Fatalf("CopyOut(60, 10) = %d records, %v", len(recs), err)
	}
	for i, e := range got {
		if e.Offset != int64(60+i) || e.Record.Key != uint64(60+i) || recs[i].Key != uint64(60+i) {
			t.Errorf("entry %d = {%d, key %d}, copy key %d", i, e.Offset, e.Record.Key, recs[i].Key)
		}
	}
	if _, err := l.CopyOut(nil, 103, 1); !errors.Is(err, ErrOffsetOutOfRange) {
		t.Errorf("copy-out past the end: %v", err)
	}
	if recs, err := l.CopyOut(recs[:0], 102, 1); err != nil || len(recs) != 0 {
		t.Errorf("copy-out at the end = %v, %v", recs, err)
	}
}

// Appending never regrows a segment: filling one with small appends
// allocates its backing array and nothing else.
func TestAppendAllocatesOncePerSegment(t *testing.T) {
	l := NewLog(0)
	batch := recs(1, 2, 3, 4)
	fillSegment := func() {
		for i := 0; i < defaultSegmentRecords/len(batch); i++ {
			l.Append(batch)
		}
	}
	fillSegment() // past the small first segments
	fillSegment()
	segments := len(l.segments)
	const runs = 10
	// AllocsPerRun reports whole allocations per run: one array per
	// segment filled (race builds add the guard's array of hashes), plus
	// a share of the segment list's own regrowth.
	want := 1.0
	if verifyShared {
		want = 2
	}
	if allocs := testing.AllocsPerRun(runs, fillSegment); allocs > want {
		t.Errorf("%v allocations per %d-record segment, want %v", allocs, defaultSegmentRecords, want)
	}
	if rolled := len(l.segments) - segments; rolled != runs+1 {
		t.Errorf("%d segments rolled during %d fills", rolled, runs+1)
	}
}
