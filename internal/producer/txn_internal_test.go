package producer

import (
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

const (
	pendingCode = wire.ErrorCode(0xFFFF)
	txnLogTopic = "__transaction_state"
)

// txnClientRig is a three-broker cluster (every partition on every
// broker), both coordinators, and one initialised transactional producer
// whose single pooled op the tests watch.
type txnClientRig struct {
	sim  *des.Simulator
	clst *cluster.Cluster
	tc   *coordinator.TxnCoordinator
	p    *TxnProducer
	op   *txnOp
}

func newTxnClientRig(t *testing.T) *txnClientRig {
	t.Helper()
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("stream", 2, 3); err != nil {
		t.Fatal(err)
	}
	co, err := coordinator.New(sim, clst, coordinator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := coordinator.NewTxn(sim, clst, co, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewTxnProducer(sim, clst, tc, TxnProducerConfig{TransactionalID: "tx", TxnTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r := &txnClientRig{sim: sim, clst: clst, tc: tc, p: p}
	code := pendingCode
	p.Init(func(c wire.ErrorCode) { code = c })
	r.until(t, "init answered", func() bool { return code != pendingCode })
	if code != wire.ErrNone {
		t.Fatalf("init: %s", code)
	}
	// A recycled op is bound (its timer set) and a fresh one is not, so
	// these two Gets require exactly one op on the list.
	r.op = p.ops.Get()
	if r.op.timer == nil {
		t.Fatal("init left no op behind")
	}
	if next := p.ops.Get(); next.timer != nil {
		t.Fatal("init left more than one op behind")
	}
	p.ops.Put(r.op)
	return r
}

// until steps the simulation in 10 µs slices until cond holds.
func (r *txnClientRig) until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := r.sim.Now() + 5*time.Second; !cond(); {
		if r.sim.Now() >= deadline {
			t.Fatalf("%s: not within 5s of simulated time", what)
		}
		if err := r.sim.RunUntil(r.sim.Now() + 10*time.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
}

// everyBroker stops or restarts the whole cluster.
func (r *txnClientRig) everyBroker(t *testing.T, do func(int32) error) {
	t.Helper()
	for id := int32(0); id < int32(r.clst.Brokers()); id++ {
		if err := do(id); err != nil {
			t.Fatal(err)
		}
	}
}

// busy reports whether the rig's op is running an operation: a request
// is outstanding (finish clears corr before the op goes back to the list).
func (r *txnClientRig) busy() bool { return r.op.corr != 0 }

// follower returns a broker that leads neither the data partition nor
// the transaction log: slowing it delays acks=all answers and nothing
// else.
func (r *txnClientRig) follower(t *testing.T) int32 {
	t.Helper()
	for id := int32(0); id < int32(r.clst.Brokers()); id++ {
		if id != r.clst.Leader("stream", 0).ID() && id != r.clst.Leader(txnLogTopic, 0).ID() {
			return id
		}
	}
	t.Fatal("no pure follower")
	return -1
}

var oneRecord = []wire.Record{{Key: 1, Payload: make([]byte, 64)}}

// TestLateAnswerDoesNotCompleteRecycledOp holds an answer until the
// request it belongs to is over and the pooled op that issued it is
// running the producer's next operation. The closures this replaced
// told the two apart by which closure the answer reached; now the
// correlation id does, and must: the late answer is dropped and the next
// operation completes on its own answer.
func TestLateAnswerDoesNotCompleteRecycledOp(t *testing.T) {
	// A produce whose follower ack outlasts txnRequestTimeout: the
	// re-issue completes Send, and the first issue's answer arrives while
	// the op is parked in the commit that follows.
	t.Run("delayed follower ack", func(t *testing.T) {
		r := newTxnClientRig(t)
		slow := r.clst.Broker(r.follower(t))
		// Watch every produce answer arrive: what the op was doing, and
		// whether the answer was for it.
		var lateDuringEndTxn int
		orig := r.op.produceDone
		r.op.produceDone = func(resp wire.ProduceResponse) {
			if resp.CorrelationID != r.op.corr && r.op.kind == opEndTxn && r.busy() {
				lateDuringEndTxn++
				slow.SetSlowdown(1) // let the commit through
			}
			orig(resp)
		}

		if err := r.p.Begin(); err != nil {
			t.Fatal(err)
		}
		sent, committed := pendingCode, pendingCode
		r.p.Send("stream", 0, oneRecord, func(c wire.ErrorCode) { sent = c })
		r.until(t, "produce issued", func() bool { return r.op.kind == opProduce })
		slow.SetSlowdown(1200) // ~60 ms per append, three request timeouts
		r.until(t, "produce timed out and re-issued", func() bool { return r.op.attempts == 2 })
		slow.SetSlowdown(1)
		r.until(t, "send answered", func() bool { return sent != pendingCode })
		if sent != wire.ErrNone {
			t.Fatalf("send: %s", sent)
		}

		// The commit's prepare record waits on the slow follower again, so
		// the op is still in EndTxn when the first produce's ack lands.
		slow.SetSlowdown(1200)
		var committedAtDone uint64
		r.p.Commit(func(c wire.ErrorCode) { committed, committedAtDone = c, r.tc.Stats().TxnsCommitted })
		if !r.busy() || r.op.kind != opEndTxn {
			t.Fatalf("commit does not run on the recycled op: kind=%d corr=%d", r.op.kind, r.op.corr)
		}
		r.until(t, "commit answered", func() bool { return committed != pendingCode })
		if lateDuringEndTxn != 1 {
			t.Fatalf("%d late produce answers reached the op during EndTxn, want 1: the scenario did not happen", lateDuringEndTxn)
		}
		if committed != wire.ErrNone || committedAtDone != 1 {
			t.Fatalf("commit answered %s with %d transactions committed: completed by an answer that was not its own", committed, committedAtDone)
		}
	})

	// An EndTxn parked in the coordinator while no broker is up: every
	// re-issue is told ErrConcurrentTransactions until the attempts run
	// out. The producer re-initialises on the same op; the brokers come
	// back, the resolution completes, and the coordinator answers the
	// parked EndTxn — to an op that is now an InitProducerId.
	t.Run("parked EndTxn", func(t *testing.T) {
		r := newTxnClientRig(t)
		if err := r.p.Begin(); err != nil {
			t.Fatal(err)
		}
		sent := pendingCode
		r.p.Send("stream", 0, oneRecord, func(c wire.ErrorCode) { sent = c })
		r.until(t, "send answered", func() bool { return sent != pendingCode })
		if sent != wire.ErrNone {
			t.Fatalf("send: %s", sent)
		}
		r.everyBroker(t, r.clst.FailBroker)
		var lateDuringInit int
		orig := r.op.endTxnDone
		r.op.endTxnDone = func(resp wire.EndTxnResponse) {
			if resp.CorrelationID != r.op.corr && r.op.kind == opInit && r.busy() {
				lateDuringInit++
			}
			orig(resp)
		}
		committed := pendingCode
		r.p.Commit(func(c wire.ErrorCode) { committed = c })
		endCorr := r.op.corr
		r.until(t, "commit gave up", func() bool { return committed != pendingCode })
		if committed != wire.ErrConcurrentTransactions || r.op.attempts != txnMaxAttempts {
			t.Fatalf("commit: %s after %d attempts, want %s after %d", committed, r.op.attempts, wire.ErrConcurrentTransactions, txnMaxAttempts)
		}

		epoch := r.p.Epoch()
		inited, initCalls := pendingCode, 0
		var epochAtDone uint32
		r.p.Init(func(c wire.ErrorCode) { inited, epochAtDone = c, r.p.Epoch(); initCalls++ })
		if !r.busy() || r.op.kind != opInit || r.op.corr == endCorr {
			t.Fatalf("init does not run on the recycled op under a new id: kind=%d corr=%d (EndTxn had %d)", r.op.kind, r.op.corr, endCorr)
		}
		r.everyBroker(t, r.clst.RecoverBroker)
		r.until(t, "init answered", func() bool { return inited != pendingCode })
		if lateDuringInit != 1 {
			t.Fatalf("%d parked EndTxn answers reached the op during Init, want 1: the scenario did not happen", lateDuringInit)
		}
		if inited != wire.ErrNone || initCalls != 1 || epochAtDone != epoch+1 {
			t.Fatalf("init answered %s (%d calls) at epoch %d, want %s once at epoch %d: completed by an answer that was not its own",
				inited, initCalls, epochAtDone, wire.ErrNone, epoch+1)
		}
		if got := r.tc.Stats().TxnsCommitted; got != 1 {
			t.Fatalf("%d transactions committed, want the parked one", got)
		}
	})

	// The same parked EndTxn answering a later re-issue of its own
	// request: one id per request, not per issue, so it still completes.
	t.Run("parked EndTxn answers its re-issue", func(t *testing.T) {
		r := newTxnClientRig(t)
		if err := r.p.Begin(); err != nil {
			t.Fatal(err)
		}
		sent := pendingCode
		r.p.Send("stream", 0, oneRecord, func(c wire.ErrorCode) { sent = c })
		r.until(t, "send answered", func() bool { return sent != pendingCode })
		r.everyBroker(t, r.clst.FailBroker)
		committed := pendingCode
		r.p.Commit(func(c wire.ErrorCode) { committed = c })
		r.until(t, "commit re-issued", func() bool { return r.op.attempts >= 3 })
		if committed != pendingCode {
			t.Fatalf("commit answered %s with every broker down", committed)
		}
		r.everyBroker(t, r.clst.RecoverBroker)
		r.until(t, "commit answered", func() bool { return committed != pendingCode })
		if committed != wire.ErrNone || r.tc.Stats().TxnsCommitted != 1 {
			t.Fatalf("commit: %s, %d committed", committed, r.tc.Stats().TxnsCommitted)
		}
	})
}

// TestKillMidOperationFiresNoCallbackAndRearmsNoTimer kills the producer
// in each state an operation can be in. Whatever happens next — the
// answer, the request timeout, the back-off expiry — the callback must
// not fire, no request may be re-issued and the op's timer must end up
// unarmed.
func TestKillMidOperationFiresNoCallbackAndRearmsNoTimer(t *testing.T) {
	settle := func(t *testing.T, r *txnClientRig, fired *bool) {
		t.Helper()
		inits := r.tc.Stats().InitRequests
		if err := r.sim.RunUntil(r.sim.Now() + 3*time.Second); err != nil { // past every retry
			t.Fatal(err)
		}
		if *fired {
			t.Fatal("callback fired after Kill")
		}
		if r.op.timer.Armed() {
			t.Fatal("timer armed after Kill")
		}
		if r.op.corr != 0 {
			t.Fatalf("op still holds request %d after Kill", r.op.corr)
		}
		if got := r.tc.Stats().InitRequests; got != inits {
			t.Fatalf("%d requests issued after Kill", got-inits)
		}
	}

	t.Run("answer arrives", func(t *testing.T) {
		r := newTxnClientRig(t)
		fired := false
		r.p.Init(func(wire.ErrorCode) { fired = true })
		r.p.Kill()
		settle(t, r, &fired)
	})
	t.Run("answer never arrives", func(t *testing.T) {
		r := newTxnClientRig(t)
		r.everyBroker(t, r.clst.FailBroker)
		fired := false
		r.p.Init(func(wire.ErrorCode) { fired = true })
		r.p.Kill()
		settle(t, r, &fired)
	})
	t.Run("during back-off", func(t *testing.T) {
		r := newTxnClientRig(t)
		if err := r.p.Begin(); err != nil {
			t.Fatal(err)
		}
		sent := pendingCode
		r.p.Send("stream", 0, oneRecord, func(c wire.ErrorCode) { sent = c })
		r.until(t, "send answered", func() bool { return sent != pendingCode })
		r.everyBroker(t, r.clst.FailBroker)
		fired := false
		r.p.Commit(func(wire.ErrorCode) { fired = true })
		r.until(t, "commit backing off", func() bool { return r.op.backoff })
		r.p.Kill()
		settle(t, r, &fired)
	})
}
