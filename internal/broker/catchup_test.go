package broker

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// TestCatchUpFromMatchesLeader drives a leader and a follower replica
// through generated idempotent, transactional, plain and marker appends
// — replicated to the follower while it is up, plus now and then a batch
// only the follower took, as from a stale leader — with unclean crashes
// of the follower at times that wander across flush boundaries. Every
// restart catches the follower up with CatchUpFrom, after which it must
// answer as the leader does: the same dedupe lookups for every producer
// and sequence, the same last stable offset, the same filtered offsets at
// both isolation levels, and a flush checkpoint holding exactly that
// state, so an unclean crash right after the catch-up loses nothing.
func TestCatchUpFromMatchesLeader(t *testing.T) {
	const interval = 50 * time.Millisecond
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := des.New()
		cfg := DefaultConfig()
		cfg.FlushInterval = interval
		bs, err := NewSet(2, sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		leader, follower := bs[0], bs[1]
		for _, b := range bs {
			b.CreatePartition("t", 0)
		}
		lp, fp := leader.resolve("t", 0), follower.resolve("t", 0)

		nextSeq := map[uint64]uint64{}
		epoch := map[uint64]uint32{}
		key := uint64(0)
		catchUps := 0
		// send appends a batch to the leader and, while it is up, to the
		// follower, as the cluster's replication does.
		send := func(bt wire.RecordBatch, idem bool) {
			leader.Append("t", 0, bt, idem)
			if follower.Up() {
				follower.Append("t", 0, bt, idem)
			}
		}
		step := func(i int) {
			when := fmt.Sprintf("seed %d step %d", seed, i)
			key++
			switch op := rng.Intn(100); {
			case op < 25: // idempotent append, sometimes a retry
				pid := uint64(1 + rng.Intn(3))
				seq := nextSeq[pid]
				if seq > 0 && rng.Intn(4) == 0 {
					seq -= uint64(1 + rng.Intn(int(min(seq, 3))))
				} else {
					nextSeq[pid]++
				}
				send(batch(pid, seq, key), true)
			case op < 35: // plain append
				pid := uint64(4 + rng.Intn(2))
				send(batch(pid, nextSeq[pid], key), false)
				nextSeq[pid]++
			case op < 60: // transactional append, sometimes under a bumped epoch
				pid := uint64(10 + rng.Intn(3))
				if rng.Intn(8) == 0 {
					epoch[pid]++
					nextSeq[pid] = 0
				}
				send(txnBatch(pid, epoch[pid], nextSeq[pid], key, key+1), true)
				key++
				nextSeq[pid]++
			case op < 78: // commit or abort marker (a no-op one when nothing is open)
				pid := uint64(10 + rng.Intn(3))
				send(marker(pid, epoch[pid], rng.Intn(2) == 0), false)
			case op < 82: // a batch only the follower took
				if follower.Up() {
					pid := uint64(20 + rng.Intn(2))
					follower.Append("t", 0, txnBatch(pid, 0, nextSeq[pid], key), true)
					nextSeq[pid]++
				}
			case op < 91: // unclean crash of the follower
				if follower.Up() {
					follower.CrashUnclean()
				}
			default: // restart and catch up
				if follower.Up() {
					return
				}
				follower.Start()
				if err := follower.CatchUpFrom(leader, "t", 0); err != nil {
					t.Fatalf("%s: %v", when, err)
				}
				catchUps++
				sameAsLeader(t, when, lp, fp, nextSeq)
				// The checkpoint holds the caught-up state: a crash now
				// must leave it in place.
				follower.CrashUnclean()
				follower.Start()
				sameAsLeader(t, when+" (crash after catch-up)", lp, fp, nextSeq)
			}
		}
		at := time.Duration(0)
		for i := 0; i < 400; i++ {
			at += time.Duration(rng.Int63n(int64(interval) * 3 / 5))
			sim.Schedule(at, func() { step(i) })
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if catchUps == 0 {
			t.Fatalf("seed %d generated no catch-up", seed)
		}
	}
}

// sameAsLeader fails unless the follower's partition f answers as the
// leader's l does, and its flush checkpoint is its live state.
func sameAsLeader(t *testing.T, when string, l, f *part, nextSeq map[uint64]uint64) {
	t.Helper()
	end := l.log.End()
	if f.log.End() != end || f.log.Flushed() != end {
		t.Fatalf("%s: follower log end %d flushed %d, leader end %d", when, f.log.End(), f.log.Flushed(), end)
	}
	// Every offset holds the leader's record, not only the suffix the
	// catch-up copied: a batch only the follower took is gone.
	lrecs, lerr := l.log.CopyOut(nil, 0, int(end))
	frecs, ferr := f.log.CopyOut(nil, 0, int(end))
	if lerr != nil || ferr != nil {
		t.Fatalf("%s: reading logs: %v, %v", when, lerr, ferr)
	}
	for off, r := range lrecs {
		if fr := frecs[off]; fr.Key != r.Key || string(fr.Payload) != string(r.Payload) {
			t.Fatalf("%s: offset %d: follower holds key %d, leader key %d", when, off, fr.Key, r.Key)
		}
	}
	for pid, next := range nextSeq {
		ls, fs := l.prod.get(pid), f.prod.get(pid)
		if (ls == nil || !ls.seen) != (fs == nil) {
			t.Fatalf("%s: producer %d: leader state %+v, follower %+v", when, pid, ls, fs)
		}
		if fs == nil {
			continue
		}
		if fs.epoch != ls.epoch || fs.lastSequence != ls.lastSequence || fs.lastOffset != ls.lastOffset || !fs.seen {
			t.Fatalf("%s: producer %d: follower %+v, leader %+v", when, pid, *fs, *ls)
		}
		for seq := uint64(0); seq <= next; seq++ {
			lo, lok := ls.lookup(seq)
			fo, fok := fs.lookup(seq)
			if lo != fo || lok != fok {
				t.Fatalf("%s: producer %d lookup(%d) = %d %v, leader %d %v", when, pid, seq, fo, fok, lo, lok)
			}
		}
	}
	if got, want := f.txn.lso(end), l.txn.lso(end); got != want {
		t.Fatalf("%s: follower LSO %d, leader %d", when, got, want)
	}
	for off := int64(0); off < end; off++ {
		for _, iso := range []wire.IsolationLevel{wire.ReadUncommitted, wire.ReadCommitted} {
			if got, want := f.txn.filtered(off, iso), l.txn.filtered(off, iso); got != want {
				t.Fatalf("%s: offset %d at isolation %d: follower filtered=%v, leader %v", when, off, iso, got, want)
			}
		}
	}
	if !sameTxn(t, &f.flushedTxn, modelTxn(t, &l.txn)) {
		t.Fatalf("%s: follower checkpoint txn %+v, leader %+v", when, f.flushedTxn, l.txn)
	}
	seen := map[uint64]producerState{}
	for _, e := range l.prod {
		if e.v.seen {
			seen[e.pid] = e.v
		}
	}
	if got := f.flushedProd.toMap(t); !maps.EqualFunc(got, seen, sameProducerState) {
		t.Fatalf("%s: follower checkpoint producers %+v, leader %+v", when, got, seen)
	}
}

// sameProducerState compares two states by what they answer.
func sameProducerState(a, b producerState) bool {
	if a.epoch != b.epoch || a.lastSequence != b.lastSequence || a.lastOffset != b.lastOffset || a.seen != b.seen || a.nRecent != b.nRecent {
		return false
	}
	for i := range int(a.nRecent) {
		if a.recent[(int(a.head)+i)%len(a.recent)] != b.recent[(int(b.head)+i)%len(b.recent)] {
			return false
		}
	}
	return true
}
