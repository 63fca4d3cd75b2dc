package broker

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/storage"
)

// refCheckpoint is the flush checkpoint taken the plain way — fresh maps
// and slices on every flush, what flushPart itself did before it started
// writing into the previous checkpoint's storage. The model test holds
// the broker's in-place checkpoint to it.
type refCheckpoint struct {
	prod    map[uint64]producerState
	txn     *txnState
	flushed int64 // log end at the flush
}

func deepCheckpoint(p *part) refCheckpoint {
	ref := refCheckpoint{
		prod: make(map[uint64]producerState, len(p.prod)),
		txn: &txnState{
			ongoing: maps.Clone(p.txn.ongoing),
			epoch:   maps.Clone(p.txn.epoch),
			aborted: slices.Clone(p.txn.aborted),
			control: slices.Clone(p.txn.control),
		},
		flushed: p.log.End(),
	}
	for id, st := range p.prod {
		ref.prod[id] = *st
	}
	return ref
}

func sameTxn(a, b *txnState) bool {
	return maps.Equal(a.ongoing, b.ongoing) && maps.Equal(a.epoch, b.epoch) &&
		slices.Equal(a.aborted, b.aborted) && slices.Equal(a.control, b.control)
}

// checkCheckpoint compares the partition's stored checkpoint with ref.
func checkCheckpoint(t *testing.T, when string, p *part, ref refCheckpoint) {
	t.Helper()
	if !maps.Equal(p.flushedProd, ref.prod) {
		t.Fatalf("%s: flushedProd = %v, reference %v", when, p.flushedProd, ref.prod)
	}
	if !sameTxn(&p.flushedTxn, ref.txn) {
		t.Fatalf("%s: flushedTxn = %+v, reference %+v", when, p.flushedTxn, *ref.txn)
	}
	if p.log.Flushed() != ref.flushed {
		t.Fatalf("%s: flushed offset = %d, reference %d", when, p.log.Flushed(), ref.flushed)
	}
}

// checkLive compares the partition's live state with ref: what an
// unclean crash must leave behind.
func checkLive(t *testing.T, when string, p *part, ref refCheckpoint) {
	t.Helper()
	if len(p.prod) != len(ref.prod) {
		t.Fatalf("%s: %d live producers, reference %d", when, len(p.prod), len(ref.prod))
	}
	for id, st := range p.prod {
		if *st != ref.prod[id] {
			t.Fatalf("%s: producer %d = %+v, reference %+v", when, id, *st, ref.prod[id])
		}
	}
	if !sameTxn(&p.txn, ref.txn) {
		t.Fatalf("%s: txn = %+v, reference %+v", when, p.txn, *ref.txn)
	}
	if p.log.End() != ref.flushed {
		t.Fatalf("%s: log end = %d, reference %d", when, p.log.End(), ref.flushed)
	}
}

// TestFlushCheckpointMatchesDeepCopyModel drives one partition through
// generated sequences of idempotent, transactional and plain appends,
// commit and abort markers, epoch bumps, retries, clean stops, catch-up
// from a leader and unclean crashes, at times that wander across flush
// boundaries. The model takes a deep copy of the live state wherever the
// broker flushes; the stored checkpoint must equal it after every step
// (so nothing written to live state since may show through), and the
// live state must equal it after every unclean crash.
func TestFlushCheckpointMatchesDeepCopyModel(t *testing.T) {
	const interval = 50 * time.Millisecond
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := des.New()
		cfg := DefaultConfig()
		cfg.FlushInterval = interval
		b, err := New(1, sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.CreatePartition("t", 0)
		p := b.resolve("t", 0)
		p.log = *storage.NewLog(16) // small segments: checkpoints cross many
		ref := deepCheckpoint(p)
		// leader is the broker a catch-up copies from; each catch-up first
		// makes its partition a thinned copy of b's.
		leader, err := New(2, sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		leader.CreatePartition("t", 0)
		lp := leader.resolve("t", 0)

		nextSeq := map[uint64]uint64{}
		epoch := map[uint64]uint32{}
		crashes := 0
		// flushIfDue is the model's half of maybeFlush: a crossed boundary
		// checkpoints the state as it is before the step.
		flushIfDue := func() {
			if b.boundary(sim.Now()) > p.lastFlush {
				ref = deepCheckpoint(p)
			}
		}
		step := func(i int) {
			when := fmt.Sprintf("seed %d step %d", seed, i)
			switch op := rng.Intn(100); {
			case op < 25: // idempotent append, sometimes a retry
				pid := uint64(1 + rng.Intn(3))
				seq := nextSeq[pid]
				if seq > 0 && rng.Intn(4) == 0 {
					seq -= uint64(1 + rng.Intn(int(min(seq, 3))))
				} else {
					nextSeq[pid]++
				}
				flushIfDue()
				b.Append("t", 0, batch(pid, seq, uint64(i)), true)
			case op < 35: // plain append
				pid := uint64(4 + rng.Intn(2))
				flushIfDue()
				b.Append("t", 0, batch(pid, nextSeq[pid], uint64(i)), false)
				nextSeq[pid]++
			case op < 65: // transactional append, sometimes under a bumped epoch
				pid := uint64(10 + rng.Intn(3))
				if rng.Intn(8) == 0 {
					epoch[pid]++
					nextSeq[pid] = 0
				}
				flushIfDue()
				b.Append("t", 0, txnBatch(pid, epoch[pid], nextSeq[pid], uint64(i), uint64(i)), true)
				nextSeq[pid]++
			case op < 85: // commit or abort marker (a no-op one when nothing is open)
				pid := uint64(10 + rng.Intn(3))
				flushIfDue()
				b.Append("t", 0, marker(pid, epoch[pid], rng.Intn(2) == 0), false)
			case op < 89: // clean stop: flushes whatever the boundary
				b.Stop()
				ref = deepCheckpoint(p)
				b.Start()
			case op < 93: // catch-up from a leader holding a thinned copy of b's state
				if err := lp.log.CatchUp(&p.log); err != nil {
					t.Fatal(err)
				}
				clear(lp.prod)
				for id, st := range p.prod {
					if rng.Intn(2) == 0 {
						*lp.state(id) = *st
					}
				}
				lp.txn.copyFrom(&p.txn)
				if err := b.CatchUpFrom(leader, "t", 0); err != nil {
					t.Fatal(err)
				}
				ref = deepCheckpoint(p)
			default: // unclean crash
				flushIfDue()
				b.CrashUnclean()
				b.Start()
				crashes++
				checkLive(t, when+" (crash)", p, ref)
				// Sequences the crash rolled back are free again.
				for pid := range nextSeq {
					nextSeq[pid] = 0
					if st := p.prod[pid]; st != nil && st.seen {
						nextSeq[pid] = st.lastSequence + 1
					}
				}
			}
			checkCheckpoint(t, when, p, ref)
		}
		at := time.Duration(0)
		for i := 0; i < 400; i++ {
			at += time.Duration(rng.Int63n(int64(interval) * 3 / 5))
			sim.Schedule(at, func() { step(i) })
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if crashes == 0 {
			t.Fatalf("seed %d generated no unclean crash", seed)
		}
	}
}

// TestFlushCheckpointDoesNotAliasLiveState mutates live state after a
// flush and crashes: the checkpoint must hold what was flushed, not what
// was written since. Then two consecutive flushes of a shrinking state —
// fewer producers, fewer open and aborted ranges, fewer markers — must
// leave no entry of the larger one behind in the reused storage.
func TestFlushCheckpointDoesNotAliasLiveState(t *testing.T) {
	sim := des.New()
	b := flushBroker(t, sim)
	p := b.resolve("t", 0)
	appendAt(t, sim, b, 10*time.Millisecond, txnBatch(7, 0, 0, 1, 2), true)
	appendAt(t, sim, b, 11*time.Millisecond, txnBatch(8, 0, 0, 3), true)
	appendAt(t, sim, b, 12*time.Millisecond, txnBatch(9, 0, 0, 4), true)
	appendAt(t, sim, b, 13*time.Millisecond, marker(9, 0, false), false)
	appendAt(t, sim, b, 14*time.Millisecond, batch(1, 0, 5), true)
	// Crossing 100ms checkpoints the five appends above, then this one
	// and everything after it change live state only.
	var flushed refCheckpoint
	sim.Schedule(120*time.Millisecond, func() {
		flushed = deepCheckpoint(p)
		b.Append("t", 0, marker(8, 0, false), false) // closes 8, grows aborted and control
		b.Append("t", 0, txnBatch(7, 0, 1, 6), true) // extends 7's open range and ring
		b.Append("t", 0, txnBatch(7, 1, 0, 7), true) // bumps 7's epoch in both states
		b.Append("t", 0, batch(1, 1, 8), true)
		b.Append("t", 0, batch(2, 0, 9), true) // a producer the checkpoint has never seen
		checkCheckpoint(t, "after live writes", p, flushed)
		b.CrashUnclean()
		b.Start()
		checkLive(t, "after crash", p, flushed)
		// The restored live state is a copy too: writing to it must not
		// reach the checkpoint it came from.
		b.Append("t", 0, marker(7, 0, true), false)
		b.Append("t", 0, batch(1, 1, 10), true)
		checkCheckpoint(t, "after post-crash writes", p, flushed)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	// Flush a large state, then a smaller one, into the same storage.
	b.flushPart(p, b.boundary(sim.Now()))
	big := deepCheckpoint(p)
	checkCheckpoint(t, "large flush", p, big)
	if len(big.prod) < 3 || len(big.txn.aborted) < 1 || len(big.txn.control) < 2 || len(big.txn.epoch) < 3 {
		t.Fatalf("large state too small to shrink: %+v %+v", big.prod, *big.txn)
	}
	// Shrink live state the way a catch-up from a shorter leader does.
	for id := range p.prod {
		if id != 1 {
			delete(p.prod, id)
		}
	}
	p.txn.ongoing = map[uint64]TxnRange{}
	p.txn.epoch = map[uint64]uint32{7: 1}
	p.txn.aborted = nil
	p.txn.control = p.txn.control[:1]
	b.flushPart(p, b.boundary(sim.Now()))
	small := deepCheckpoint(p)
	checkCheckpoint(t, "small flush", p, small)
	b.CrashUnclean()
	checkLive(t, "crash after small flush", p, small)
}

// TestSteadyStateFlushDoesNotAllocate pins the checkpoint's cost: once a
// partition's producers and open transactions have been seen by one
// flush, flushing again — every replica does, every interval — writes
// into the storage of the last checkpoint and allocates nothing.
func TestSteadyStateFlushDoesNotAllocate(t *testing.T) {
	sim := des.New()
	b := flushBroker(t, sim)
	p := b.resolve("t", 0)
	for pid := uint64(1); pid <= 8; pid++ {
		for seq := uint64(0); seq < 20; seq++ {
			b.Append("t", 0, txnBatch(pid, 0, seq, pid, seq), true)
			if seq%5 == 4 {
				b.Append("t", 0, marker(pid, 0, seq%10 == 4), false)
			}
		}
		b.Append("t", 0, txnBatch(pid, 0, 20, pid), true) // left open
	}
	if len(p.txn.ongoing) != 8 || len(p.txn.aborted) == 0 || len(p.txn.control) == 0 {
		t.Fatalf("state not populated: %+v", p.txn)
	}
	bd := b.boundary(sim.Now())
	allocs := testing.AllocsPerRun(100, func() {
		// Live state moves between flushes, within what the last
		// checkpoint had room for.
		st := p.prod[3]
		st.lastOffset++
		p.txn.ongoing[3] = TxnRange{First: st.lastOffset, Next: st.lastOffset + 1}
		b.flushPart(p, bd)
	})
	if allocs != 0 {
		t.Fatalf("steady-state flushPart allocates %.0f objects per flush, want 0", allocs)
	}
	checkCheckpoint(t, "after steady-state flushes", p, deepCheckpoint(p))
}
