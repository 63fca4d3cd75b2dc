// Transaction-coordinator tests live in an external test package so
// they can drive the coordinator through the transactional producer
// client (producer imports coordinator).
package coordinator_test

import (
	"testing"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/producer"
	"kafkarel/internal/wire"
)

// txnRig builds a simulator, a 3-broker cluster with a "stream" topic,
// a group coordinator and a transaction coordinator.
func txnRig(t testing.TB, cfg coordinator.TxnConfig) (*des.Simulator, *cluster.Cluster, *coordinator.Coordinator, *coordinator.TxnCoordinator) {
	t.Helper()
	sim := des.New()
	clst, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := clst.CreateTopic("stream", 4, 3); err != nil {
		t.Fatal(err)
	}
	co, err := coordinator.New(sim, clst, coordinator.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := coordinator.NewTxn(sim, clst, co, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, clst, co, tc
}

// initTxn runs InitProducerId to completion and returns the identity.
func initTxn(t *testing.T, sim *des.Simulator, tc *coordinator.TxnCoordinator, tid string) (uint64, uint32) {
	t.Helper()
	resp := wire.InitProducerIDResponse{Err: wire.ErrorCode(0xFFFF)}
	tc.HandleInitProducerID(wire.InitProducerIDRequest{TransactionalID: tid},
		func(r wire.InitProducerIDResponse) { resp = r })
	if err := sim.RunUntil(sim.Now() + 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrNone {
		t.Fatalf("init %s: %s", tid, resp.Err)
	}
	return resp.ProducerID, resp.ProducerEpoch
}

// addPartition registers stream/part with the transaction.
func addPartition(t *testing.T, sim *des.Simulator, tc *coordinator.TxnCoordinator, tid string, pid uint64, epoch uint32, part int32) {
	t.Helper()
	resp := wire.AddPartitionsToTxnResponse{Err: wire.ErrorCode(0xFFFF)}
	tc.HandleAddPartitionsToTxn(wire.AddPartitionsToTxnRequest{
		TransactionalID: tid, ProducerID: pid, ProducerEpoch: epoch,
		Topic: "stream", Partition: part,
	}, func(r wire.AddPartitionsToTxnResponse) { resp = r })
	if err := sim.RunUntil(sim.Now() + 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrNone {
		t.Fatalf("add partition: %s", resp.Err)
	}
}

// produceTxn appends one transactional batch to stream/part.
func produceTxn(t *testing.T, sim *des.Simulator, clst *cluster.Cluster, pid uint64, epoch uint32, seq uint64, part int32, keys ...uint64) {
	t.Helper()
	recs := make([]wire.Record, len(keys))
	for i, k := range keys {
		recs[i] = wire.Record{Key: k, Payload: []byte("v")}
	}
	resp := wire.ProduceResponse{Err: wire.ErrorCode(0xFFFF)}
	clst.HandleProduce(wire.ProduceRequest{
		Topic: "stream", Partition: part, Acks: wire.AcksAll,
		Batch: wire.RecordBatch{
			ProducerID: pid, ProducerEpoch: epoch, BaseSequence: seq,
			Idempotent: true, Transactional: true, Records: recs,
		},
	}, func(r wire.ProduceResponse) { resp = r })
	if err := sim.RunUntil(sim.Now() + 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrNone {
		t.Fatalf("transactional produce: %s", resp.Err)
	}
}

// endTxn issues EndTxn and returns a pointer that fills when resolution
// completes.
func endTxn(tc *coordinator.TxnCoordinator, tid string, pid uint64, epoch uint32, commit bool) *wire.EndTxnResponse {
	resp := &wire.EndTxnResponse{Err: wire.ErrorCode(0xFFFF)}
	tc.HandleEndTxn(wire.EndTxnRequest{
		TransactionalID: tid, ProducerID: pid, ProducerEpoch: epoch, Commit: commit,
	}, func(r wire.EndTxnResponse) { *resp = r })
	return resp
}

// fetchAt reads stream/part from offset 0 at the given isolation.
func fetchAt(t *testing.T, clst *cluster.Cluster, part int32, iso wire.IsolationLevel) wire.FetchResponse {
	t.Helper()
	var resp wire.FetchResponse
	clst.HandleFetch(wire.FetchRequest{
		Topic: "stream", Partition: part, Offset: 0, MaxRecords: 1000, Isolation: iso,
	}, func(r wire.FetchResponse) { resp = r })
	return resp
}

func TestTxnInitBumpsEpochAndFencesZombie(t *testing.T) {
	sim, _, _, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	pid0, epoch0 := initTxn(t, sim, tc, "tx")
	pid1, epoch1 := initTxn(t, sim, tc, "tx")
	if pid0 != pid1 {
		t.Fatalf("producer id changed across re-init: %d -> %d", pid0, pid1)
	}
	if epoch1 != epoch0+1 {
		t.Fatalf("epoch %d after re-init, want %d", epoch1, epoch0+1)
	}
	// The old epoch is a zombie everywhere.
	resp := wire.AddPartitionsToTxnResponse{Err: wire.ErrorCode(0xFFFF)}
	tc.HandleAddPartitionsToTxn(wire.AddPartitionsToTxnRequest{
		TransactionalID: "tx", ProducerID: pid0, ProducerEpoch: epoch0,
		Topic: "stream", Partition: 0,
	}, func(r wire.AddPartitionsToTxnResponse) { resp = r })
	if resp.Err != wire.ErrProducerFenced {
		t.Fatalf("stale-epoch add = %s, want PRODUCER_FENCED", resp.Err)
	}
	if got := tc.Stats().FencedRequests; got != 1 {
		t.Fatalf("fenced requests = %d, want 1", got)
	}
}

func TestTxnCommitWritesMarkersAndOffsets(t *testing.T) {
	sim, clst, co, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	pid, epoch := initTxn(t, sim, tc, "tx")
	addPartition(t, sim, tc, "tx", pid, epoch, 0)
	produceTxn(t, sim, clst, pid, epoch, 1, 0, 10, 11, 12)

	// The open transaction holds read_committed readers at the LSO.
	if f := fetchAt(t, clst, 0, wire.ReadCommitted); len(f.Records) != 0 || f.LastStable != 0 {
		t.Fatalf("open txn visible at read_committed: %d records, LSO %d", len(f.Records), f.LastStable)
	}
	if f := fetchAt(t, clst, 0, wire.ReadUncommitted); len(f.Records) != 3 {
		t.Fatalf("read_uncommitted sees %d records, want 3", len(f.Records))
	}

	var ocResp wire.TxnOffsetCommitResponse
	tc.HandleTxnOffsetCommit(wire.TxnOffsetCommitRequest{
		TransactionalID: "tx", ProducerID: pid, ProducerEpoch: epoch,
		Group: "g", Topic: "stream", Partition: 0, Offset: 3,
	}, func(r wire.TxnOffsetCommitResponse) { ocResp = r })
	sim.RunUntil(sim.Now() + 100*time.Millisecond)
	if ocResp.Err != wire.ErrNone {
		t.Fatalf("txn offset commit: %s", ocResp.Err)
	}
	// Staged, not durable: the group coordinator must not serve it yet.
	var of wire.OffsetFetchResponse
	co.HandleOffsetFetch(wire.OffsetFetchRequest{Group: "g", Topic: "stream", Partition: 0},
		func(r wire.OffsetFetchResponse) { of = r })
	if of.Err != wire.ErrNoCommittedOffset {
		t.Fatalf("staged offset visible before commit: %+v", of)
	}

	er := endTxn(tc, "tx", pid, epoch, true)
	sim.RunUntil(sim.Now() + 200*time.Millisecond)
	if er.Err != wire.ErrNone {
		t.Fatalf("commit: %s", er.Err)
	}
	if f := fetchAt(t, clst, 0, wire.ReadCommitted); len(f.Records) != 3 {
		t.Fatalf("committed records not visible: %d, want 3", len(f.Records))
	}
	co.HandleOffsetFetch(wire.OffsetFetchRequest{Group: "g", Topic: "stream", Partition: 0},
		func(r wire.OffsetFetchResponse) { of = r })
	if of.Err != wire.ErrNone || of.Offset != 3 {
		t.Fatalf("committed offset = %+v, want offset 3", of)
	}
	st := tc.Stats()
	if st.TxnsCommitted != 1 || st.MarkersWritten != 1 || st.OffsetsForwarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if !coordinator.TxnIsEmpty(tc, "tx") {
		t.Fatal("live state after commit is not Empty")
	}
	if ms := tc.MaterializedState(); ms["tx"] != "Empty" {
		t.Fatalf("transaction log materializes %q, want Empty", ms["tx"])
	}
}

func TestTxnAbortDiscardsRecordsAndOffsets(t *testing.T) {
	sim, clst, co, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	pid, epoch := initTxn(t, sim, tc, "tx")
	addPartition(t, sim, tc, "tx", pid, epoch, 0)
	produceTxn(t, sim, clst, pid, epoch, 1, 0, 20, 21)
	tc.HandleTxnOffsetCommit(wire.TxnOffsetCommitRequest{
		TransactionalID: "tx", ProducerID: pid, ProducerEpoch: epoch,
		Group: "g", Topic: "stream", Partition: 0, Offset: 2,
	}, func(wire.TxnOffsetCommitResponse) {})
	sim.RunUntil(sim.Now() + 100*time.Millisecond)

	er := endTxn(tc, "tx", pid, epoch, false)
	sim.RunUntil(sim.Now() + 200*time.Millisecond)
	if er.Err != wire.ErrNone {
		t.Fatalf("abort: %s", er.Err)
	}
	// Aborted data filtered at read_committed, residue at read_uncommitted.
	if f := fetchAt(t, clst, 0, wire.ReadCommitted); len(f.Records) != 0 {
		t.Fatalf("aborted records visible at read_committed: %d", len(f.Records))
	}
	if f := fetchAt(t, clst, 0, wire.ReadUncommitted); len(f.Records) != 2 {
		t.Fatalf("read_uncommitted sees %d records, want 2", len(f.Records))
	}
	// Staged offsets discarded.
	var of wire.OffsetFetchResponse
	co.HandleOffsetFetch(wire.OffsetFetchRequest{Group: "g", Topic: "stream", Partition: 0},
		func(r wire.OffsetFetchResponse) { of = r })
	if of.Err != wire.ErrNoCommittedOffset {
		t.Fatalf("aborted offset leaked: %+v", of)
	}
	st := tc.Stats()
	if st.TxnsAborted != 1 || st.OffsetsForwarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTxnTimeoutAbortsAndFencesStalledProducer(t *testing.T) {
	sim, clst, _, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: 100 * time.Millisecond})
	pid, epoch := initTxn(t, sim, tc, "tx")
	addPartition(t, sim, tc, "tx", pid, epoch, 0)
	produceTxn(t, sim, clst, pid, epoch, 1, 0, 30)

	// The producer stalls; the coordinator must abort on its own.
	sim.RunUntil(sim.Now() + 300*time.Millisecond)
	st := tc.Stats()
	if st.TimeoutAborts != 1 || st.TxnsAborted != 1 {
		t.Fatalf("stats after stall = %+v", st)
	}
	if !coordinator.TxnIsEmpty(tc, "tx") {
		t.Fatal("live state after timeout is not Empty")
	}
	if f := fetchAt(t, clst, 0, wire.ReadCommitted); len(f.Records) != 0 {
		t.Fatalf("timed-out records visible at read_committed: %d", len(f.Records))
	}
	// The stalled producer wakes up and tries to commit: fenced, fatal.
	er := endTxn(tc, "tx", pid, epoch, true)
	if er.Err != wire.ErrProducerFenced {
		t.Fatalf("stalled commit = %s, want PRODUCER_FENCED", er.Err)
	}
}

func TestTxnEndDuringResolutionIsConcurrent(t *testing.T) {
	sim, clst, _, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	pid, epoch := initTxn(t, sim, tc, "tx")
	addPartition(t, sim, tc, "tx", pid, epoch, 0)
	produceTxn(t, sim, clst, pid, epoch, 1, 0, 40)

	first := endTxn(tc, "tx", pid, epoch, true)
	// Same-instant retry while phase two is in flight.
	second := endTxn(tc, "tx", pid, epoch, true)
	if second.Err != wire.ErrConcurrentTransactions {
		t.Fatalf("concurrent EndTxn = %s, want CONCURRENT_TRANSACTIONS", second.Err)
	}
	sim.RunUntil(sim.Now() + 200*time.Millisecond)
	if first.Err != wire.ErrNone {
		t.Fatalf("original EndTxn: %s", first.Err)
	}
}

func TestTxnRedriveCompletesCommitAcrossBrokerCrash(t *testing.T) {
	sim, clst, _, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	pid, epoch := initTxn(t, sim, tc, "tx")
	addPartition(t, sim, tc, "tx", pid, epoch, 0)
	produceTxn(t, sim, clst, pid, epoch, 1, 0, 50, 51)

	// Kill the data partition's leader the instant the commit is issued:
	// the marker's ack vanishes and the coordinator must re-drive onto
	// the new leader (and again after recovery).
	leader := clst.Leader("stream", 0)
	er := endTxn(tc, "tx", pid, epoch, true)
	if err := clst.FailBroker(leader.ID()); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(sim.Now() + 500*time.Millisecond)
	if err := clst.RecoverBroker(leader.ID()); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(sim.Now() + 500*time.Millisecond)
	if er.Err != wire.ErrNone {
		t.Fatalf("commit across leader crash: %s", er.Err)
	}
	if f := fetchAt(t, clst, 0, wire.ReadCommitted); len(f.Records) != 2 {
		t.Fatalf("committed records after crash = %d, want 2", len(f.Records))
	}
	if tc.Stats().TxnsCommitted != 1 {
		t.Fatalf("stats = %+v", tc.Stats())
	}
}

func TestTxnInitAbortsPreviousHoldersOpenTransaction(t *testing.T) {
	sim, clst, _, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	pid, epoch := initTxn(t, sim, tc, "tx")
	addPartition(t, sim, tc, "tx", pid, epoch, 0)
	produceTxn(t, sim, clst, pid, epoch, 1, 0, 60)

	// A new incarnation inits while the old transaction is Ongoing: the
	// init must abort it before answering.
	pid2, epoch2 := initTxn(t, sim, tc, "tx")
	if pid2 != pid || epoch2 != epoch+1 {
		t.Fatalf("re-init identity = (%d,%d), want (%d,%d)", pid2, epoch2, pid, epoch+1)
	}
	if tc.Stats().TxnsAborted != 1 {
		t.Fatalf("previous transaction not aborted: %+v", tc.Stats())
	}
	if f := fetchAt(t, clst, 0, wire.ReadCommitted); len(f.Records) != 0 {
		t.Fatalf("orphaned records visible at read_committed: %d", len(f.Records))
	}
}

// txnCycle runs transactions back to back through the client with
// callbacks bound once, the way the pipeline processor does: what a cycle
// allocates is then the transactional path's own.
type txnCycle struct {
	p    *producer.TxnProducer
	end  int64
	code wire.ErrorCode

	sent, offsetSent, committed func(wire.ErrorCode)
}

var cycleRecs = []wire.Record{{Key: 1, Payload: make([]byte, 64)}}

func newTxnCycle(p *producer.TxnProducer) *txnCycle {
	c := &txnCycle{p: p}
	c.sent = func(code wire.ErrorCode) {
		if code != wire.ErrNone {
			c.code = code
			return
		}
		c.p.SendOffset("g", "stream", 0, c.end, c.offsetSent)
	}
	c.offsetSent = func(code wire.ErrorCode) {
		if code != wire.ErrNone {
			c.code = code
			return
		}
		c.p.Commit(c.committed)
	}
	c.committed = func(code wire.ErrorCode) { c.code = code }
	return c
}

func (c *txnCycle) run(t testing.TB, sim *des.Simulator) {
	if err := c.p.Begin(); err != nil {
		t.Fatal(err)
	}
	c.end++
	c.code = wire.ErrorCode(0xFFFF)
	c.p.Send("stream", 0, cycleRecs, c.sent)
	for c.code == wire.ErrorCode(0xFFFF) {
		if err := sim.RunUntil(sim.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if c.code != wire.ErrNone {
		t.Fatalf("cycle %d: %s", c.end, c.code)
	}
}

// TestTxnCycleAllocatesItsRecordsAndNothingElse pins the whole
// transactional cycle — AddPartitions, a transactional batch at
// acks=all, AddOffsets, TxnOffsetCommit, and the two-phase EndTxn with
// its prepare record, control marker, forwarded offset and completion
// record: five client requests, seven replicated appends — at what the
// logs keep of it. The client's op, the coordinator's write jobs and the
// group coordinator's commit job are pooled, every callback between them
// is bound once, and the payloads are carved from slabs; what is left is
// slab chunks and log segments, which average below one object a cycle.
// It was 52 (BenchmarkTxnCommitPath's 56 less the loop's own four) when
// each request and each append was a nest of closures.
func TestTxnCycleAllocatesItsRecordsAndNothingElse(t *testing.T) {
	sim, clst, _, tc := txnRig(t, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	p, err := producer.NewTxnProducer(sim, clst, tc, producer.TxnProducerConfig{
		TransactionalID: "cycle", TxnTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	initErr := wire.ErrorCode(0xFFFF)
	p.Init(func(code wire.ErrorCode) { initErr = code })
	if err := sim.RunUntil(sim.Now() + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if initErr != wire.ErrNone {
		t.Fatalf("init: %s", initErr)
	}
	c := newTxnCycle(p)
	for i := 0; i < 50; i++ { // past the small first slab chunks and segments
		c.run(t, sim)
	}
	const cycles = 1000
	allocs := testing.AllocsPerRun(cycles, func() { c.run(t, sim) })
	if got := tc.Stats().TxnsCommitted; got != 50+cycles+1 { // AllocsPerRun warms up once
		t.Fatalf("committed = %d, want %d", got, 50+cycles+1)
	}
	if allocs != 0 {
		t.Fatalf("a transaction cycle allocates %.0f objects, want 0 (amortised)", allocs)
	}
}

// BenchmarkTxnCommitPath measures one full transactional cycle through
// the client: Begin, AddPartitions + one transactional batch (acks=all),
// a staged offset, and the two-phase EndTxn (durable prepare, control
// marker, offset forward, durable completion) — the steady-state cost of
// an exactly-once pipeline hop. It reports 4 allocs/op, all this loop's
// own closures: TestTxnCycleAllocatesItsRecordsAndNothingElse holds the
// cycle itself at zero.
func BenchmarkTxnCommitPath(b *testing.B) {
	sim, clst, co, tc := txnRig(b, coordinator.TxnConfig{DefaultTxnTimeout: time.Hour})
	p, err := producer.NewTxnProducer(sim, clst, tc, producer.TxnProducerConfig{
		TransactionalID: "bench", TxnTimeout: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	initErr := wire.ErrorCode(0xFFFF)
	p.Init(func(code wire.ErrorCode) { initErr = code })
	if err := sim.RunUntil(sim.Now() + 100*time.Millisecond); err != nil {
		b.Fatal(err)
	}
	if initErr != wire.ErrNone {
		b.Fatalf("init: %s", initErr)
	}
	recs := []wire.Record{{Key: 1, Payload: make([]byte, 64)}}
	_ = co

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Begin(); err != nil {
			b.Fatal(err)
		}
		cycle := wire.ErrorCode(0xFFFF)
		p.Send("stream", 0, recs, func(code wire.ErrorCode) {
			if code != wire.ErrNone {
				cycle = code
				return
			}
			p.SendOffset("g", "stream", 0, int64(i+1), func(code wire.ErrorCode) {
				if code != wire.ErrNone {
					cycle = code
					return
				}
				p.Commit(func(code wire.ErrorCode) { cycle = code })
			})
		})
		for cycle == wire.ErrorCode(0xFFFF) {
			if err := sim.RunUntil(sim.Now() + time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		if cycle != wire.ErrNone {
			b.Fatalf("cycle %d: %s", i, cycle)
		}
	}
	b.StopTimer()
	if got := tc.Stats().TxnsCommitted; got != uint64(b.N) {
		b.Fatalf("committed = %d, want %d", got, b.N)
	}
}
