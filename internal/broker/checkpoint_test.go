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

// toMap is a table's contents as the map the model keeps; it fails the
// test unless the entries are in strictly ascending pid order.
func (t pidTable[V]) toMap(tb testing.TB) map[uint64]V {
	tb.Helper()
	m := make(map[uint64]V, len(t))
	for i, e := range t {
		if i > 0 && t[i-1].pid >= e.pid {
			tb.Fatalf("pid table out of order at %d: %d after %d", i, e.pid, t[i-1].pid)
		}
		m[e.pid] = e.v
	}
	return m
}

// refTxn is a transaction view as the model keeps it: maps by pid and
// fresh slices.
type refTxn struct {
	ongoing map[uint64]TxnRange
	epoch   map[uint64]uint32
	aborted []TxnRange
	control []int64
}

func modelTxn(tb testing.TB, ts *txnState) refTxn {
	return refTxn{
		ongoing: ts.ongoing.toMap(tb),
		epoch:   ts.epoch.toMap(tb),
		aborted: slices.Clone(ts.aborted),
		control: slices.Clone(ts.control),
	}
}

// refCheckpoint is the flush checkpoint taken the plain way — fresh maps
// and slices on every flush, what flushPart itself did before it started
// writing into the previous checkpoint's storage. The model test holds
// the broker's in-place checkpoint to it.
type refCheckpoint struct {
	prod    map[uint64]producerState
	txn     refTxn
	flushed int64 // log end at the flush
}

func deepCheckpoint(tb testing.TB, p *part) refCheckpoint {
	return refCheckpoint{prod: p.prod.toMap(tb), txn: modelTxn(tb, &p.txn), flushed: p.log.End()}
}

func sameTxn(tb testing.TB, ts *txnState, ref refTxn) bool {
	got := modelTxn(tb, ts)
	return maps.Equal(got.ongoing, ref.ongoing) && maps.Equal(got.epoch, ref.epoch) &&
		slices.Equal(got.aborted, ref.aborted) && slices.Equal(got.control, ref.control)
}

// checkCheckpoint compares the partition's stored checkpoint with ref.
func checkCheckpoint(t testing.TB, when string, p *part, ref refCheckpoint) {
	t.Helper()
	if got := p.flushedProd.toMap(t); !maps.Equal(got, ref.prod) {
		t.Fatalf("%s: flushedProd = %v, reference %v", when, got, ref.prod)
	}
	if !sameTxn(t, &p.flushedTxn, ref.txn) {
		t.Fatalf("%s: flushedTxn = %+v, reference %+v", when, p.flushedTxn, ref.txn)
	}
	if p.log.Flushed() != ref.flushed {
		t.Fatalf("%s: flushed offset = %d, reference %d", when, p.log.Flushed(), ref.flushed)
	}
}

// checkLive compares the partition's live state with ref: what an
// unclean crash must leave behind.
func checkLive(t testing.TB, when string, p *part, ref refCheckpoint) {
	t.Helper()
	if got := p.prod.toMap(t); !maps.Equal(got, ref.prod) {
		t.Fatalf("%s: live producers = %v, reference %v", when, got, ref.prod)
	}
	if !sameTxn(t, &p.txn, ref.txn) {
		t.Fatalf("%s: txn = %+v, reference %+v", when, p.txn, ref.txn)
	}
	if p.log.End() != ref.flushed {
		t.Fatalf("%s: log end = %d, reference %d", when, p.log.End(), ref.flushed)
	}
}

// checkpointModel drives one partition of a flushing broker through
// idempotent, transactional and plain appends, commit and abort markers,
// epoch bumps, retries, clean stops, catch-up from a leader and unclean
// crashes, at times that wander across flush boundaries, beside a model
// that takes a deep copy of the live state wherever the broker flushes.
// The stored checkpoint must equal the model's after every step (so
// nothing written to live state since may show through), and the live
// state must equal it after every unclean crash. pick(n) chooses every
// operation, producer id and delay, in [0, n).
type checkpointModel struct {
	t       testing.TB
	pick    func(n int) int
	sim     *des.Simulator
	b       *Broker
	p       *part
	leader  *Broker // a catch-up first makes its partition a thinned copy of p
	lp      *part
	ref     refCheckpoint
	nextSeq map[uint64]uint64
	epoch   map[uint64]uint32
	crashes int
}

const modelInterval = 50 * time.Millisecond

// The kinds of producer draw their ids from interleaved pools, so the
// tables' inserts land before, between and after the ids they hold.
var (
	idemPIDs  = [...]uint64{2, 7, 13}
	plainPIDs = [...]uint64{4, 11}
	txnPIDs   = [...]uint64{1, 9, 15}
)

func newCheckpointModel(t testing.TB, pick func(int) int) *checkpointModel {
	m := &checkpointModel{t: t, pick: pick, sim: des.New(), nextSeq: map[uint64]uint64{}, epoch: map[uint64]uint32{}}
	cfg := DefaultConfig()
	cfg.FlushInterval = modelInterval
	bs, err := NewSet(2, m.sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.b, m.leader = bs[0], bs[1]
	for _, b := range bs {
		b.CreatePartition("t", 0)
	}
	m.p, m.lp = m.b.resolve("t", 0), m.leader.resolve("t", 0)
	m.p.log = *storage.NewLog(16) // small segments: checkpoints cross many
	m.ref = deepCheckpoint(t, m.p)
	return m
}

// run takes up to steps steps, each a delay after the last, while more
// reports there is something left to choose from.
func (m *checkpointModel) run(steps int, more func() bool) {
	var next func(i int)
	next = func(i int) {
		if i == steps || !more() {
			return
		}
		m.sim.After(time.Duration(m.pick(256))*(modelInterval*3/5/256), func() {
			m.step(i)
			next(i + 1)
		})
	}
	next(0)
	if err := m.sim.Run(); err != nil {
		m.t.Fatal(err)
	}
}

// flushIfDue is the model's half of maybeFlush: a crossed boundary
// checkpoints the state as it is before the step.
func (m *checkpointModel) flushIfDue() {
	if m.b.boundary(m.sim.Now()) > m.p.lastFlush {
		m.ref = deepCheckpoint(m.t, m.p)
	}
}

func (m *checkpointModel) step(i int) {
	t, b, p, key := m.t, m.b, m.p, uint64(i)
	when := fmt.Sprintf("step %d", i)
	switch op := m.pick(100); {
	case op < 25: // idempotent append, sometimes a retry
		pid := idemPIDs[m.pick(len(idemPIDs))]
		seq := m.nextSeq[pid]
		if seq > 0 && m.pick(4) == 0 {
			seq -= uint64(1 + m.pick(int(min(seq, 3))))
		} else {
			m.nextSeq[pid]++
		}
		m.flushIfDue()
		b.Append("t", 0, batch(pid, seq, key), true)
	case op < 35: // plain append
		pid := plainPIDs[m.pick(len(plainPIDs))]
		m.flushIfDue()
		b.Append("t", 0, batch(pid, m.nextSeq[pid], key), false)
		m.nextSeq[pid]++
	case op < 65: // transactional append, sometimes under a bumped epoch
		pid := txnPIDs[m.pick(len(txnPIDs))]
		if m.pick(8) == 0 {
			m.epoch[pid]++
			m.nextSeq[pid] = 0
		}
		m.flushIfDue()
		b.Append("t", 0, txnBatch(pid, m.epoch[pid], m.nextSeq[pid], key, key), true)
		m.nextSeq[pid]++
	case op < 85: // commit or abort marker (a no-op one when nothing is open)
		pid := txnPIDs[m.pick(len(txnPIDs))]
		m.flushIfDue()
		b.Append("t", 0, marker(pid, m.epoch[pid], m.pick(2) == 0), false)
	case op < 89: // clean stop: flushes whatever the boundary
		b.Stop()
		m.ref = deepCheckpoint(t, p)
		b.Start()
	case op < 93: // catch-up from a leader holding a thinned copy of b's state
		lp := m.lp
		if err := lp.log.CatchUp(&p.log); err != nil {
			t.Fatal(err)
		}
		lp.prod = lp.prod[:0]
		for _, e := range p.prod {
			if m.pick(2) == 0 {
				lp.prod = append(lp.prod, e)
			}
		}
		lp.txn.copyFrom(&p.txn)
		if err := b.CatchUpFrom(m.leader, "t", 0); err != nil {
			t.Fatal(err)
		}
		m.ref = deepCheckpoint(t, p)
	default: // unclean crash
		m.flushIfDue()
		b.CrashUnclean()
		b.Start()
		m.crashes++
		checkLive(t, when+" (crash)", p, m.ref)
		// Sequences the crash rolled back are free again.
		for pid := range m.nextSeq {
			m.nextSeq[pid] = 0
			if st := p.prod.get(pid); st != nil && st.seen {
				m.nextSeq[pid] = st.lastSequence + 1
			}
		}
	}
	checkCheckpoint(t, when, p, m.ref)
}

// TestFlushCheckpointMatchesDeepCopyModel runs the checkpoint model for
// 400 steps at each of 20 seeds.
func TestFlushCheckpointMatchesDeepCopyModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			m := newCheckpointModel(t, rand.New(rand.NewSource(seed)).Intn)
			m.run(400, func() bool { return true })
			if m.crashes == 0 {
				t.Fatal("no unclean crash generated")
			}
		})
	}
}

// FuzzPartitionState runs the checkpoint model with every choice — the
// operation, the producer id, the delay — read from the fuzz bytes, one
// byte each, until they run out.
func FuzzPartitionState(f *testing.F) {
	f.Add([]byte{0, 0, 0, 30, 1, 0, 60, 2, 0, 90, 1, 0, 10, 0, 0, 0, 95})
	f.Add([]byte{200, 40, 2, 0, 200, 50, 0, 1, 200, 80, 1, 200, 91, 1, 0, 1, 255, 97, 3, 20, 2})
	f.Add([]byte{1, 33, 2, 9, 1, 36, 1, 1, 44, 0, 7, 1, 70, 2, 1, 250, 86, 9, 99, 1, 30, 0, 3, 95})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		pick := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			c := int(data[0]) % n
			data = data[1:]
			return c
		}
		newCheckpointModel(t, pick).run(len(data), func() bool { return len(data) > 0 })
	})
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
		flushed = deepCheckpoint(t, p)
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
	big := deepCheckpoint(t, p)
	checkCheckpoint(t, "large flush", p, big)
	if len(big.prod) < 3 || len(big.txn.aborted) < 1 || len(big.txn.control) < 2 || len(big.txn.epoch) < 3 {
		t.Fatalf("large state too small to shrink: %+v %+v", big.prod, big.txn)
	}
	// Shrink live state the way a catch-up from a shorter leader does.
	p.prod = pidTable[producerState]{{pid: 1, v: *p.prod.get(1)}}
	p.txn.ongoing = nil
	p.txn.epoch = pidTable[uint32]{{pid: 7, v: 1}}
	p.txn.aborted = nil
	p.txn.control = p.txn.control[:1]
	b.flushPart(p, b.boundary(sim.Now()))
	small := deepCheckpoint(t, p)
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
		st := p.prod.get(3)
		st.lastOffset++
		*p.txn.ongoing.get(3) = TxnRange{First: st.lastOffset, Next: st.lastOffset + 1}
		b.flushPart(p, bd)
	})
	if allocs != 0 {
		t.Fatalf("steady-state flushPart allocates %.0f objects per flush, want 0", allocs)
	}
	checkCheckpoint(t, "after steady-state flushes", p, deepCheckpoint(t, p))
}
