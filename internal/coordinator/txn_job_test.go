package coordinator

import (
	"slices"
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// txnJobRig is the coordinator rig plus a transaction coordinator and
// one granted identity, driven through the Handle* calls directly.
type txnJobRig struct {
	sim  *des.Simulator
	clst *cluster.Cluster
	tc   *TxnCoordinator
	t    *txn
}

func newTxnJobRig(t *testing.T) *txnJobRig {
	t.Helper()
	sim, clst, co := rig(t, Config{})
	tc, err := NewTxn(sim, clst, co, TxnConfig{DefaultTxnTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r := &txnJobRig{sim: sim, clst: clst, tc: tc}
	init := wire.InitProducerIDResponse{Err: pendingErr}
	tc.HandleInitProducerID(wire.InitProducerIDRequest{TransactionalID: "tx"},
		func(resp wire.InitProducerIDResponse) { init = resp })
	r.until(t, "init answered", func() bool { return init.Err != pendingErr })
	if init.Err != wire.ErrNone {
		t.Fatalf("init: %s", init.Err)
	}
	r.t = tc.txns["tx"]
	return r
}

// until steps the simulation in 10 µs slices until cond holds.
func (r *txnJobRig) until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := r.sim.Now() + time.Second; !cond(); {
		if r.sim.Now() >= deadline {
			t.Fatalf("%s: not within 1s of simulated time", what)
		}
		if err := r.sim.RunUntil(r.sim.Now() + 10*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
}

// register opens (or extends) the transaction with stream/0.
func (r *txnJobRig) register(t *testing.T) {
	t.Helper()
	code := pendingErr
	r.tc.HandleAddPartitionsToTxn(wire.AddPartitionsToTxnRequest{
		TransactionalID: "tx", ProducerID: r.t.pid, ProducerEpoch: r.t.epoch, Topic: "stream",
	}, func(resp wire.AddPartitionsToTxnResponse) { code = resp.Err })
	r.until(t, "registration answered", func() bool { return code != pendingErr })
	if code != wire.ErrNone {
		t.Fatalf("add partition: %s", code)
	}
}

func (r *txnJobRig) end() *wire.ErrorCode {
	code := pendingErr
	r.tc.HandleEndTxn(wire.EndTxnRequest{
		TransactionalID: "tx", ProducerID: r.t.pid, ProducerEpoch: r.t.epoch, Commit: true,
	}, func(resp wire.EndTxnResponse) { code = resp.Err })
	return &code
}

// TestLateAnswerOfSupersededDrivePassIsDropped holds the answer to a
// prepare record past the retry timer, which voids the pass (attempt is
// bumped) and re-issues it. The first pass's answer must change nothing
// when it arrives — here in the middle of the *next* transaction's
// resolution, one ack outstanding — and its job must go back to the free
// list once, from that answer.
func TestLateAnswerOfSupersededDrivePassIsDropped(t *testing.T) {
	r := newTxnJobRig(t)
	// A broker that leads neither log: slowing it delays acks=all
	// answers and nothing else.
	slow := int32(0)
	for slow == r.clst.Leader(txnTopic, 0).ID() || slow == r.clst.Leader("stream", 0).ID() {
		slow++
	}
	follower := r.clst.Broker(slow)

	r.register(t)
	follower.SetSlowdown(1200) // ~60 ms per append, six retry periods
	first := r.end()
	t0 := r.sim.Now()
	r.until(t, "prepare record on its way to the slow follower", func() bool { return r.sim.Now() >= t0+time.Millisecond })
	follower.SetSlowdown(1)
	r.until(t, "first transaction resolved", func() bool { return *first != pendingErr })
	if st := r.tc.Stats(); *first != wire.ErrNone || st.Redrives != 1 || st.TxnsCommitted != 1 {
		t.Fatalf("first EndTxn: %s, stats %+v; want it committed by one re-drive", *first, st)
	}

	// The second transaction reaches its own prepare just before the
	// first one's late answer lands.
	r.register(t)
	r.until(t, "late answer nearly due", func() bool { return r.sim.Now() >= t0+58*time.Millisecond })
	follower.SetSlowdown(1200)
	second := r.end()
	attempt, appends := r.t.attempt, r.tc.Stats().StateAppends
	r.until(t, "late answer arrived", func() bool { return r.tc.Stats().StateAppends > appends })
	follower.SetSlowdown(1)
	if r.t.attempt != attempt || r.t.pending != 1 || r.t.prepared || *second != pendingErr {
		t.Fatalf("late answer moved the resolution: attempt %d->%d pending=%d prepared=%v EndTxn=%s",
			attempt, r.t.attempt, r.t.pending, r.t.prepared, *second)
	}
	r.until(t, "second transaction resolved", func() bool { return *second != pendingErr })
	if err := r.sim.RunUntil(r.sim.Now() + 200*time.Millisecond); err != nil { // every straggler home
		t.Fatal(err)
	}
	st := r.tc.Stats()
	if *second != wire.ErrNone || st.TxnsCommitted != 2 || st.MarkersWritten != 2 || st.Redrives != 2 || r.t.pending != 0 {
		t.Fatalf("second EndTxn: %s, pending=%d, stats %+v; want two commits, one marker each, one re-drive each", *second, r.t.pending, st)
	}
	// Drain the free list: a recycled job is bound, and the first unbound
	// one is fresh from a block, past the last job the list held.
	seen := map[*txnJob]bool{}
	for j := r.tc.jobs.Get(); j.produced != nil; j = r.tc.jobs.Get() {
		if seen[j] {
			t.Fatal("a job is on the free list twice")
		}
		seen[j] = true
	}
}

// TestRedriveWalksTransactionsInIDOrder pins what Redrive's sort used to
// give: in-doubt transactions are re-driven in transactional.id order,
// whatever order the ids were granted in.
func TestRedriveWalksTransactionsInIDOrder(t *testing.T) {
	sim, clst, co := rig(t, Config{})
	tc, err := NewTxn(sim, clst, co, TxnConfig{DefaultTxnTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, tid := range []string{"m", "b", "z", "a", "q", "b"} {
		tc.HandleInitProducerID(wire.InitProducerIDRequest{TransactionalID: tid}, nil)
	}
	var got []string
	for _, x := range tc.order {
		got = append(got, x.tid)
	}
	if want := []string{"a", "b", "m", "q", "z"}; !slices.Equal(got, want) || len(tc.txns) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}
