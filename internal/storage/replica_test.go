package storage

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"kafkarel/internal/wire"
)

// modelRecord is what the model knows of one offset: the record appended at
// it and that record's contents as they were at the time.
type modelRecord struct {
	rec     *wire.Record
	key     uint64
	payload string
}

// replicas is three logs — a partition's leader and followers — driven
// by append, replicate, truncate and catch-up, beside a model of what
// each must read back.
type replicas struct {
	logs  [3]*Log
	model [3][]modelRecord
	key   uint64
}

// segmentLimits are the roll thresholds the replica tests give their
// logs: tiny ones cut every batch across segments, 0 is the default
// schedule (64, 64, 128, ...), so a catch-up copies between logs whose
// segment boundaries differ.
var segmentLimits = [4]int{3, 5, 64, 0}

func newReplicas(layout byte) *replicas {
	r := &replicas{}
	for i := range r.logs {
		r.logs[i] = NewLog(segmentLimits[layout>>(2*i)&3])
	}
	return r
}

func (r *replicas) batch(n int) []wire.Record {
	out := make([]wire.Record, n)
	for i := range out {
		r.key++
		out[i] = wire.Record{Key: r.key, Timestamp: 3, Payload: []byte(fmt.Sprintf("p%04d", r.key))[:r.key%5]}
	}
	return out
}

func (r *replicas) appendTo(i int, batch []wire.Record) {
	if base := r.logs[i].Append(batch); base != int64(len(r.model[i])) {
		panic(fmt.Sprintf("log %d: append base %d, want %d", i, base, len(r.model[i])))
	}
	for j := range batch {
		r.model[i] = append(r.model[i], modelRecord{&batch[j], batch[j].Key, string(batch[j].Payload)})
	}
}

// step applies one operation to the logs and the model; op picks the
// kind and the logs, arg its size.
func (r *replicas) step(op, arg byte) error {
	i, j := int(op>>2)%3, int(op>>4)%3
	switch op & 3 {
	case 0: // a produce at the leader, replicated: one batch, three logs
		batch := r.batch(int(arg%9) + 1)
		for k := range r.logs {
			r.appendTo(k, batch)
		}
	case 1: // one replica alone appends different records
		r.appendTo(i, r.batch(int(arg%9)+1))
	case 2: // an unclean truncate of one replica
		cut := int(arg) % (len(r.model[i]) + 1)
		r.logs[i].TruncateTo(int64(cut))
		r.model[i] = r.model[i][:cut:cut]
	case 3: // replica i catches up from j
		if i == j {
			return nil
		}
		if err := r.logs[i].CatchUp(r.logs[j]); err != nil {
			return fmt.Errorf("catch-up %d from %d: %w", i, j, err)
		}
		// i keeps the prefix it shares with j, record for record.
		cut := 0
		for cut < min(len(r.model[i]), len(r.model[j])) && r.model[i][cut].rec == r.model[j][cut].rec {
			cut++
		}
		r.model[i] = append(slices.Clip(r.model[i][:cut]), r.model[j][cut:]...)
	}
	return r.check()
}

// check reads every log whole through each read path and compares what it
// finds with the model: each offset references the record appended at
// it, and that record still holds what it held then.
func (r *replicas) check() error {
	for i, l := range r.logs {
		want := r.model[i]
		if l.End() != int64(len(want)) {
			return fmt.Errorf("log %d: end %d, model %d", i, l.End(), len(want))
		}
		recs, err := l.CopyOut(nil, 0, len(want)+1)
		if err != nil || len(recs) != len(want) {
			return fmt.Errorf("log %d: CopyOut = %d records, %v; want %d", i, len(recs), err, len(want))
		}
		var scanned []Entry
		l.Scan(func(e Entry) bool { scanned = append(scanned, e); return true })
		if len(scanned) != len(want) {
			return fmt.Errorf("log %d: Scan saw %d records, want %d", i, len(scanned), len(want))
		}
		for off, w := range want {
			run, _ := l.run(int64(off), 1)
			c, e := recs[off], scanned[off]
			if run[0] != w.rec || c.Key != w.key || string(c.Payload) != w.payload ||
				e.Offset != int64(off) || e.Record.Key != w.key || string(e.Record.Payload) != w.payload {
				return fmt.Errorf("log %d offset %d: key %d %q (scan %d %q), want key %d %q", i, off, c.Key, c.Payload, e.Record.Key, e.Record.Payload, w.key, w.payload)
			}
		}
	}
	return nil
}

// Replicas appended one batch hold pointer-equal records: the leader and
// both followers index the one copy the producer handed over, and a
// catch-up shares the leader's records the same way.
func TestReplicasShareOneCopyOfEachRecord(t *testing.T) {
	r := newReplicas(0b11_01_00)
	batch := r.batch(200) // crosses segment boundaries in all three layouts
	for k := range r.logs {
		r.appendTo(k, batch)
	}
	fresh := NewLog(7)
	if err := fresh.CatchUp(r.logs[0]); err != nil {
		t.Fatal(err)
	}
	for off := range batch {
		for k, l := range append(r.logs[:], fresh) {
			if run, _ := l.run(int64(off), 1); run[0] != &batch[off] {
				t.Fatalf("log %d offset %d holds a copy of the record", k, off)
			}
		}
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
}

// Model-based property over three replicas: random replicated appends,
// appends to one replica alone, unclean truncates and catch-ups between
// logs with different segment layouts. After every operation each log
// reads back the model's records, by reference and by value — so
// truncating one replica and re-appending different records there never
// changes what another replica reads.
func TestPropertyReplicasMatchModel(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 13))
		r := newReplicas(byte(rng.IntN(64)))
		for op := 0; op < 150; op++ {
			if err := r.step(byte(rng.IntN(256)), byte(rng.IntN(256))); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// FuzzLogReplicas drives the three-replica model from bytes: the first
// byte picks the segment layout, every further pair of bytes one
// operation.
func FuzzLogReplicas(f *testing.F) {
	f.Add([]byte{0, 0, 5, 2, 9, 3, 0})
	f.Add([]byte{0b11_10_01, 0, 200, 0x12, 3, 0x07, 1, 0x13, 0, 0x22, 40, 0x1b, 0})
	f.Add([]byte{0b00_01_10, 1, 8, 5, 8, 9, 8, 0x0b, 0, 0x26, 2, 0x17, 0, 0, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 401 {
			return
		}
		r := newReplicas(ops[0])
		for k := 1; k+1 < len(ops); k += 2 {
			if err := r.step(ops[k], ops[k+1]); err != nil {
				t.Fatalf("op %d (%#x %#x): %v", k/2, ops[k], ops[k+1], err)
			}
		}
	})
}

// The race-build guard (verifyShared) catches a record written after
// Append — its header or its payload bytes — on the next copy-out, Scan
// or catch-up, naming the offset.
func TestWriteAfterAppendIsCaught(t *testing.T) {
	if !verifyShared {
		t.Skip("the guard is compiled in only under -race")
	}
	for _, c := range []struct {
		name  string
		write func([]wire.Record)
		read  func(*Log)
	}{
		{"header/CopyOut", func(b []wire.Record) { b[70].Key = 7 }, func(l *Log) { l.CopyOut(nil, 60, 20) }},
		{"payload/Scan", func(b []wire.Record) { b[70].Payload[0] = 'x' }, func(l *Log) { l.Scan(func(Entry) bool { return true }) }},
		{"payload/ReadInto", func(b []wire.Record) { b[70].Payload = []byte("other") }, func(l *Log) { l.ReadInto(70, 1, nil) }},
		{"header/CatchUp", func(b []wire.Record) { b[70].Timestamp++ }, func(l *Log) { NewLog(0).CatchUp(l) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := NewLog(0)
			batch := newReplicas(0).batch(100)
			batch[70].Payload = []byte("payload")
			l.Append(batch)
			c.write(batch)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "offset 70 ") || !strings.Contains(msg, "written after Append") {
					t.Errorf("panic %q, want one naming offset 70", msg)
				}
			}()
			c.read(l)
		})
	}
}
