package coordinator

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/storage"
	"kafkarel/internal/wire"
)

// TxnCoordinator is the broker-side transaction coordinator, modeled on
// Kafka's: it binds transactional.ids to (producer id, epoch) pairs,
// fences zombies by bumping the epoch, records every state transition
// durably in a replicated __transaction_state log, and drives the
// two-phase outcome — a commit or abort decision made durable first,
// then control markers written into every partition the transaction
// touched (plus the consumed offsets forwarded to the group coordinator
// on commit), then a durable completion record.
//
// The marker and offset writes are re-drivable: every step is
// idempotent at its destination (a replayed marker is a no-op on the
// broker's transaction view, a replayed offset commit is last-write-
// wins on the same key), so after a broker crash or a lost append the
// coordinator simply re-issues whatever has not been acknowledged,
// on a retry cadence and again after every topology change.

// txnTopic is the internal transaction-state topic name.
const txnTopic = "__transaction_state"

// txnRetryBackoff is the re-drive cadence for unacknowledged marker,
// offset, and state-log writes.
const txnRetryBackoff = 10 * time.Millisecond

// txnProducerIDBase offsets coordinator-assigned producer ids away from
// the ids hand-configured on plain idempotent producers.
const txnProducerIDBase = 1 << 32

// TxnConfig tunes the transaction coordinator.
type TxnConfig struct {
	// TxnReplication is the state topic's replication factor (default
	// 3, every broker of the cluster: Kafka's
	// transaction.state.log.replication.factor spirit).
	TxnReplication int
	// DefaultTxnTimeout bounds how long a transaction may stay open
	// before the coordinator aborts it (default 100ms of virtual time);
	// producers may request a shorter or longer bound per id.
	DefaultTxnTimeout time.Duration
}

func (c *TxnConfig) applyDefaults() {
	if c.TxnReplication <= 0 {
		c.TxnReplication = 3
	}
	if c.DefaultTxnTimeout <= 0 {
		c.DefaultTxnTimeout = 100 * time.Millisecond
	}
}

// TxnStats counts transaction-coordinator activity.
type TxnStats struct {
	InitRequests     uint64 // InitProducerId requests served
	EpochBumps       uint64 // epoch increments (every re-init and timeout)
	TxnsCommitted    uint64 // transactions driven to a durable commit
	TxnsAborted      uint64 // transactions driven to a durable abort
	TimeoutAborts    uint64 // aborts initiated by the transaction timeout
	FencedRequests   uint64 // requests rejected with ErrProducerFenced
	MarkersWritten   uint64 // control markers acknowledged by partitions
	OffsetsForwarded uint64 // transactional offsets acknowledged by the group coordinator
	Redrives         uint64 // re-drive passes over in-doubt transactions
	StateAppends     uint64 // transaction-state log records acknowledged
}

// Transaction states, in both memory and the state log.
const (
	txnEmpty         int8 = iota // identity assigned, no open transaction
	txnOngoing                   // data or offsets registered, undecided
	txnPrepareCommit             // commit decided durably; markers in flight
	txnPrepareAbort              // abort decided durably; markers in flight
)

// txn is one transactional.id's coordinator-side state.
type txn struct {
	tc    *TxnCoordinator
	tid   string
	pid   uint64
	epoch uint32
	state int8

	partitions []wire.TxnPartition
	group      string
	offsets    []wire.TxnOffset

	timeout      time.Duration
	timeoutTimer *des.Timer // fires a timeout abort while Ongoing
	retryTimer   *des.Timer // re-drives unacknowledged writes

	// Resolution bookkeeping for the prepare -> markers -> offsets ->
	// complete pipeline. attempt invalidates callbacks from a superseded
	// drive pass; pending counts this pass's outstanding acks.
	prepared   bool
	markerDone []bool
	offsetDone []bool
	attempt    uint64
	pending    int

	pendingEnd  func(wire.EndTxnResponse)
	endCorr     uint32
	pendingInit func(wire.InitProducerIDResponse)
	initCorr    uint32
}

// TxnCoordinator owns every transactional.id's state machine. Not safe
// for concurrent use; the DES is single-threaded.
type TxnCoordinator struct {
	sim     *des.Simulator
	clst    *cluster.Cluster
	groupCo *Coordinator // offsets forwarding target; may be nil
	cfg     TxnConfig
	txns    map[string]*txn
	// order holds the same transactions sorted by transactional.id,
	// kept so at insert: Redrive walks it on every topology change, and
	// map iteration order must not leak into the DES.
	order   []*txn
	nextPID uint64
	log     logAppender // state-log appends and control markers
	stats   TxnStats

	jobs des.FreeList[txnJob] // recycled write jobs
}

// What a txnJob's answer is for.
const (
	jobInit            int8 = iota // identity record of an InitProducerId with nothing to abort
	jobAddPartitions               // registration record; answers AddPartitionsToTxn
	jobAddOffsets                  // registration record; answers AddOffsetsToTxn
	jobTxnOffsetCommit             // registration record; answers TxnOffsetCommit
	jobPrepare                     // phase one: the durable commit/abort decision
	jobMarker                      // phase two: partition i's control marker
	jobOffset                      // phase two: staged offset i, forwarded to the group coordinator
	jobComplete                    // the durable completion record
)

// txnJob carries one of the coordinator's own writes — a state-log
// append, a control marker, a forwarded offset — from issue to answer
// without a closure per write: what the answer is for is a kind and a
// few fields, and the callbacks handed to the cluster and the group
// coordinator are bound once per pooled job. A job goes back to the free
// list only from its own answer (DESIGN.md §7, "Control-plane
// requests"): a write a dead leader swallowed is never answered, and its
// job stays behind in its block, exactly as the cluster leaves a prodJob.
type txnJob struct {
	tc   *TxnCoordinator
	t    *txn
	kind int8
	// attempt is the drive pass that issued a phase-one/two write; the
	// answer of a superseded pass is dropped. i is the marker's or the
	// offset's index in the transaction.
	attempt uint64
	i       int
	// The registration request being answered: its correlation id and,
	// by kind, its callback.
	corr           uint32
	addedPartition func(wire.AddPartitionsToTxnResponse)
	addedOffsets   func(wire.AddOffsetsToTxnResponse)
	stagedOffset   func(wire.TxnOffsetCommitResponse)

	produced  func(wire.ProduceResponse)      // bound once; reused across reuses
	forwarded func(wire.OffsetCommitResponse) // bound once; reused across reuses
}

func (tc *TxnCoordinator) getJob(t *txn, kind int8) *txnJob {
	j := tc.jobs.Get()
	if j.produced == nil {
		j.tc = tc
		j.produced = j.onProduced
		j.forwarded = j.onForwarded
	}
	j.t, j.kind, j.attempt = t, kind, t.attempt
	return j
}

func (j *txnJob) onProduced(resp wire.ProduceResponse)       { j.answer(resp.Err) }
func (j *txnJob) onForwarded(resp wire.OffsetCommitResponse) { j.answer(resp.Err) }

// answer acts on the outcome of the job's write and recycles the job.
func (j *txnJob) answer(code wire.ErrorCode) {
	tc, t := j.tc, j.t
	if code == wire.ErrNone && j.kind != jobMarker && j.kind != jobOffset {
		tc.stats.StateAppends++
	}
	switch j.kind {
	case jobInit:
		tc.answerInit(t, code)
	case jobAddPartitions:
		if j.addedPartition != nil {
			j.addedPartition(wire.AddPartitionsToTxnResponse{CorrelationID: j.corr, Err: code})
		}
	case jobAddOffsets:
		if j.addedOffsets != nil {
			j.addedOffsets(wire.AddOffsetsToTxnResponse{CorrelationID: j.corr, Err: code})
		}
	case jobTxnOffsetCommit:
		if j.stagedOffset != nil {
			j.stagedOffset(wire.TxnOffsetCommitResponse{CorrelationID: j.corr, Err: code})
		}
	default:
		if t.attempt == j.attempt {
			tc.driveAnswer(j, code)
		}
	}
	j.t, j.addedPartition, j.addedOffsets, j.stagedOffset = nil, nil, nil, nil
	tc.jobs.Put(j)
}

// driveAnswer counts one ack of the current drive pass and advances the
// resolution.
func (tc *TxnCoordinator) driveAnswer(j *txnJob, code wire.ErrorCode) {
	t := j.t
	if code != wire.ErrNone && j.kind == jobOffset {
		// A refused offset leaves the pass open for the retry timer. The
		// group coordinator refuses synchronously while the offsets log
		// has no leader, and driving again from here would forward it
		// again at once, without bound.
		return
	}
	t.pending--
	if code == wire.ErrNone {
		switch j.kind {
		case jobPrepare:
			t.prepared = true
		case jobMarker:
			t.markerDone[j.i] = true
			tc.stats.MarkersWritten++
		case jobOffset:
			t.offsetDone[j.i] = true
			tc.stats.OffsetsForwarded++
		case jobComplete:
			tc.finish(t, t.state == txnPrepareCommit)
			return
		}
	}
	tc.drive(t)
}

// NewTxn builds a transaction coordinator over the cluster, creating
// the internal transaction-state topic, and registers itself for
// topology-change re-drives. groupCo receives transactional offset
// commits on commit; it may be nil when no consumer group is involved.
func NewTxn(sim *des.Simulator, clst *cluster.Cluster, groupCo *Coordinator, cfg TxnConfig) (*TxnCoordinator, error) {
	if sim == nil {
		return nil, fmt.Errorf("coordinator: nil simulator")
	}
	if clst == nil {
		return nil, fmt.Errorf("coordinator: nil cluster")
	}
	cfg.applyDefaults()
	if err := clst.CreateTopic(txnTopic, 1, cfg.TxnReplication); err != nil {
		return nil, fmt.Errorf("coordinator: txn topic: %w", err)
	}
	tc := &TxnCoordinator{
		sim:     sim,
		clst:    clst,
		groupCo: groupCo,
		cfg:     cfg,
		txns:    make(map[string]*txn),
		nextPID: txnProducerIDBase,
		log:     logAppender{clst: clst},
	}
	clst.AddTopologyHook(tc.Redrive)
	return tc, nil
}

// Stats returns the activity counters.
func (tc *TxnCoordinator) Stats() TxnStats { return tc.stats }

// fenceCheck validates a request's producer identity against the
// transaction. A stale epoch is a zombie (fatal ErrProducerFenced); a
// wrong or future identity is ErrInvalidTxnState.
func (tc *TxnCoordinator) fenceCheck(t *txn, pid uint64, epoch uint32) wire.ErrorCode {
	if t == nil || pid != t.pid || epoch > t.epoch {
		return wire.ErrInvalidTxnState
	}
	if epoch < t.epoch {
		tc.stats.FencedRequests++
		return wire.ErrProducerFenced
	}
	return wire.ErrNone
}

// admit runs the checks every in-transaction request starts with: the
// producer identity, then that no resolution is in flight.
func (tc *TxnCoordinator) admit(t *txn, pid uint64, epoch uint32) wire.ErrorCode {
	if code := tc.fenceCheck(t, pid, epoch); code != wire.ErrNone {
		return code
	}
	if t.state == txnPrepareCommit || t.state == txnPrepareAbort {
		return wire.ErrConcurrentTransactions
	}
	return wire.ErrNone
}

// HandleInitProducerID grants (or re-grants) a producer identity for a
// transactional.id. The epoch is bumped on every re-init, fencing any
// zombie still holding the previous one; a transaction the previous
// holder left open is aborted before the new identity is answered.
func (tc *TxnCoordinator) HandleInitProducerID(req wire.InitProducerIDRequest, done func(wire.InitProducerIDResponse)) {
	if req.TransactionalID == "" {
		if done != nil {
			done(wire.InitProducerIDResponse{CorrelationID: req.CorrelationID, Err: wire.ErrInvalidTxnState})
		}
		return
	}
	tc.stats.InitRequests++
	t, ok := tc.txns[req.TransactionalID]
	if !ok {
		t = &txn{tc: tc, tid: req.TransactionalID, pid: tc.nextPID, state: txnEmpty}
		tc.nextPID++
		tc.txns[t.tid] = t
		at := sort.Search(len(tc.order), func(i int) bool { return tc.order[i].tid >= t.tid })
		tc.order = slices.Insert(tc.order, at, t)
	} else {
		t.epoch++
		tc.stats.EpochBumps++
	}
	t.timeout = req.TxnTimeout
	if t.timeout <= 0 {
		t.timeout = tc.cfg.DefaultTxnTimeout
	}
	// A parked init from a previous holder is superseded: it belongs to a
	// producer the new epoch just fenced.
	if t.pendingInit != nil {
		prev, corr := t.pendingInit, t.initCorr
		t.pendingInit = nil
		prev(wire.InitProducerIDResponse{CorrelationID: corr, Err: wire.ErrProducerFenced})
	}
	t.pendingInit = done
	t.initCorr = req.CorrelationID
	switch t.state {
	case txnOngoing:
		// Abort the previous holder's open transaction under the new
		// epoch; the init answer waits for the abort to complete.
		tc.beginResolution(t, false)
	case txnPrepareCommit, txnPrepareAbort:
		// A resolution is already in flight; the init answer joins it.
		tc.drive(t)
	default:
		// No open transaction: persist the new identity and answer.
		tc.appendState(tc.getJob(t, jobInit))
	}
}

// answerInit completes a parked InitProducerId.
func (tc *TxnCoordinator) answerInit(t *txn, code wire.ErrorCode) {
	if t.pendingInit == nil {
		return
	}
	done, corr := t.pendingInit, t.initCorr
	t.pendingInit = nil
	done(wire.InitProducerIDResponse{
		CorrelationID: corr, ProducerID: t.pid, ProducerEpoch: t.epoch, Err: code,
	})
}

// HandleAddPartitionsToTxn registers a partition with the current
// transaction, opening it if this is the first touch. The registration
// is durable before it is acknowledged — the coordinator must know
// every touched partition to place markers after a crash.
func (tc *TxnCoordinator) HandleAddPartitionsToTxn(req wire.AddPartitionsToTxnRequest, done func(wire.AddPartitionsToTxnResponse)) {
	t := tc.txns[req.TransactionalID]
	code := tc.admit(t, req.ProducerID, req.ProducerEpoch)
	p := wire.TxnPartition{Topic: req.Topic, Partition: req.Partition}
	if code == wire.ErrNone && !slices.Contains(t.partitions, p) {
		t.partitions = append(t.partitions, p)
		tc.open(t)
		j := tc.getJob(t, jobAddPartitions)
		j.corr, j.addedPartition = req.CorrelationID, done
		tc.appendState(j)
		return
	}
	// Rejected, or already registered and durable.
	if done != nil {
		done(wire.AddPartitionsToTxnResponse{CorrelationID: req.CorrelationID, Err: code})
	}
}

// HandleAddOffsetsToTxn registers the consumer group whose offsets the
// transaction will commit.
func (tc *TxnCoordinator) HandleAddOffsetsToTxn(req wire.AddOffsetsToTxnRequest, done func(wire.AddOffsetsToTxnResponse)) {
	t := tc.txns[req.TransactionalID]
	code := tc.admit(t, req.ProducerID, req.ProducerEpoch)
	if code == wire.ErrNone && t.group != req.Group {
		t.group = req.Group
		tc.open(t)
		j := tc.getJob(t, jobAddOffsets)
		j.corr, j.addedOffsets = req.CorrelationID, done
		tc.appendState(j)
		return
	}
	// Rejected, or already registered and durable.
	if done != nil {
		done(wire.AddOffsetsToTxnResponse{CorrelationID: req.CorrelationID, Err: code})
	}
}

// HandleTxnOffsetCommit stages one consumed offset inside the
// transaction. Staged offsets reach the group coordinator only when the
// transaction commits; an abort discards them.
func (tc *TxnCoordinator) HandleTxnOffsetCommit(req wire.TxnOffsetCommitRequest, done func(wire.TxnOffsetCommitResponse)) {
	t := tc.txns[req.TransactionalID]
	code := tc.admit(t, req.ProducerID, req.ProducerEpoch)
	if code == wire.ErrNone {
		if t.group == "" {
			t.group = req.Group
		}
		if req.Group != t.group {
			code = wire.ErrInvalidTxnState
		}
	}
	if code != wire.ErrNone {
		if done != nil {
			done(wire.TxnOffsetCommitResponse{CorrelationID: req.CorrelationID, Err: code})
		}
		return
	}
	staged := false
	for i := range t.offsets {
		if t.offsets[i].Topic == req.Topic && t.offsets[i].Partition == req.Partition {
			t.offsets[i].Offset = req.Offset
			staged = true
			break
		}
	}
	if !staged {
		t.offsets = append(t.offsets, wire.TxnOffset{Topic: req.Topic, Partition: req.Partition, Offset: req.Offset})
	}
	tc.open(t)
	j := tc.getJob(t, jobTxnOffsetCommit)
	j.corr, j.stagedOffset = req.CorrelationID, done
	tc.appendState(j)
}

// HandleEndTxn decides the transaction: the decision is made durable
// first (phase one), then markers and offsets are driven to every
// destination and a completion record is written (phase two); done
// fires only when the whole pipeline has been acknowledged.
func (tc *TxnCoordinator) HandleEndTxn(req wire.EndTxnRequest, done func(wire.EndTxnResponse)) {
	t := tc.txns[req.TransactionalID]
	code := tc.admit(t, req.ProducerID, req.ProducerEpoch)
	if code == wire.ErrNone && t.state == txnEmpty {
		code = wire.ErrInvalidTxnState
	}
	if code != wire.ErrNone {
		if done != nil {
			done(wire.EndTxnResponse{CorrelationID: req.CorrelationID, Err: code})
		}
		return
	}
	t.pendingEnd = done
	t.endCorr = req.CorrelationID
	tc.beginResolution(t, req.Commit)
}

// open moves an Empty transaction to Ongoing and arms the timeout.
func (tc *TxnCoordinator) open(t *txn) {
	if t.state != txnEmpty {
		return
	}
	t.state = txnOngoing
	if t.timeoutTimer == nil {
		tt := t
		t.timeoutTimer = des.NewTimer(tc.sim, func() { tc.timeoutAbort(tt) })
	}
	t.timeoutTimer.Reset(t.timeout)
}

// timeoutAbort fires when a transaction overstays its timeout: the
// epoch is bumped so the stalled producer is a zombie from here on, and
// the transaction is driven to an abort.
func (tc *TxnCoordinator) timeoutAbort(t *txn) {
	if t.state != txnOngoing {
		return
	}
	t.epoch++
	tc.stats.EpochBumps++
	tc.stats.TimeoutAborts++
	tc.beginResolution(t, false)
}

// beginResolution starts phase one: make the commit/abort decision
// durable, then drive phase two.
func (tc *TxnCoordinator) beginResolution(t *txn, commit bool) {
	if t.timeoutTimer != nil {
		t.timeoutTimer.Stop()
	}
	if commit {
		t.state = txnPrepareCommit
	} else {
		t.state = txnPrepareAbort
	}
	t.prepared = false
	t.markerDone = clearedFlags(t.markerDone, len(t.partitions))
	t.offsetDone = clearedFlags(t.offsetDone, len(t.offsets))
	t.attempt++
	t.pending = 0
	tc.drive(t)
}

// clearedFlags returns n false flags, in s's storage when it is large
// enough: a resolution's ack flags are dead once the next one begins.
func clearedFlags(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// drive advances an in-doubt transaction by (re)issuing whatever its
// current step still lacks: the durable prepare record, unacknowledged
// markers, unforwarded offsets, then the durable completion record.
// Acks call drive again; so do the retry timer and every topology
// change, with the attempt counter invalidating stale callbacks so a
// forced re-drive never double-counts.
func (tc *TxnCoordinator) drive(t *txn) {
	if t.state != txnPrepareCommit && t.state != txnPrepareAbort {
		return
	}
	if t.pending > 0 {
		return // acks outstanding; the retry timer forces progress if they vanish
	}
	commit := t.state == txnPrepareCommit
	if !t.prepared {
		t.pending = 1
		tc.appendState(tc.getJob(t, jobPrepare))
		tc.armRetry(t)
		return
	}
	for i := range t.partitions {
		if t.markerDone[i] {
			continue
		}
		t.pending++
		tc.sendMarker(t, i, commit)
	}
	if t.pending > 0 {
		tc.armRetry(t)
		return
	}
	if commit {
		for i := range t.offsets {
			if t.offsetDone[i] {
				continue
			}
			t.pending++
			tc.forwardOffset(t, i)
		}
		if t.pending > 0 {
			tc.armRetry(t)
			return
		}
	}
	// Everything acknowledged: complete durably and answer.
	t.pending = 1
	tc.completeState(tc.getJob(t, jobComplete))
	tc.armRetry(t)
}

// sendMarker writes one partition's control marker under the
// transaction's current epoch. A re-driven marker is harmless: brokers
// treat a marker with no ongoing range as a no-op.
func (tc *TxnCoordinator) sendMarker(t *txn, i int, commit bool) {
	p := t.partitions[i]
	j := tc.getJob(t, jobMarker)
	j.i = i
	tc.log.append(wire.ProduceRequest{
		Topic:     p.Topic,
		Partition: p.Partition,
		Acks:      wire.AcksAll,
		Batch: wire.RecordBatch{
			ProducerID:    t.pid,
			ProducerEpoch: t.epoch,
			Control:       true,
		},
	}, wire.ControlRecord(commit, tc.sim.Now()), j.produced)
}

// forwardOffset hands one staged offset to the group coordinator.
func (tc *TxnCoordinator) forwardOffset(t *txn, i int) {
	o := t.offsets[i]
	if tc.groupCo == nil {
		t.pending--
		t.offsetDone[i] = true
		tc.drive(t)
		return
	}
	j := tc.getJob(t, jobOffset)
	j.i = i
	tc.groupCo.CommitTxnOffset(t.group, o.Topic, o.Partition, o.Offset, j.forwarded)
}

// finish closes a resolved transaction and answers the parked
// EndTxn/InitProducerId callers.
func (tc *TxnCoordinator) finish(t *txn, commit bool) {
	if commit {
		tc.stats.TxnsCommitted++
	} else {
		tc.stats.TxnsAborted++
	}
	t.state = txnEmpty
	t.partitions = t.partitions[:0]
	t.offsets = t.offsets[:0]
	t.group = ""
	t.prepared = false
	if t.retryTimer != nil {
		t.retryTimer.Stop()
	}
	if t.pendingEnd != nil {
		done, corr := t.pendingEnd, t.endCorr
		t.pendingEnd = nil
		done(wire.EndTxnResponse{CorrelationID: corr, Err: wire.ErrNone})
	}
	tc.answerInit(t, wire.ErrNone)
}

// armRetry schedules the re-drive backstop for a transaction with
// writes in flight: if their acks vanish (a crashed leader never
// answers), the timer voids the pass and re-issues the remainder.
func (tc *TxnCoordinator) armRetry(t *txn) {
	if t.retryTimer == nil {
		tt := t
		t.retryTimer = des.NewTimer(tc.sim, func() { tc.retryFire(tt) })
	}
	t.retryTimer.Reset(txnRetryBackoff)
}

func (tc *TxnCoordinator) retryFire(t *txn) {
	if t.state != txnPrepareCommit && t.state != txnPrepareAbort {
		return
	}
	tc.stats.Redrives++
	t.attempt++
	t.pending = 0
	tc.drive(t)
}

// Redrive re-issues every in-doubt transaction's outstanding writes.
// The cluster invokes it after every broker failure, unclean crash, or
// recovery: markers lost with a crashed partition leader and state
// appends lost with the transaction log's leader are simply sent again.
func (tc *TxnCoordinator) Redrive() {
	// No drive pass issues a transactional.id's first InitProducerId, so
	// order cannot grow under the walk.
	for _, t := range tc.order {
		if t.state == txnPrepareCommit || t.state == txnPrepareAbort {
			tc.stats.Redrives++
			t.attempt++
			t.pending = 0
			tc.drive(t)
		}
	}
}

// appendState writes the transaction's full current state to the
// transaction log; j is answered with the outcome. ErrNone means the
// record is as durable as the log's replication settings make it.
func (tc *TxnCoordinator) appendState(j *txnJob) {
	t := j.t
	tc.appendRecord(txnRecord{
		Tid: t.tid, Pid: t.pid, Epoch: t.epoch, State: t.state,
		Partitions: t.partitions, Group: t.group, Offsets: t.offsets,
	}, j)
}

// completeState writes the completion record: the transaction is over,
// its partition and offset sets cleared.
func (tc *TxnCoordinator) completeState(j *txnJob) {
	t := j.t
	tc.appendRecord(txnRecord{Tid: t.tid, Pid: t.pid, Epoch: t.epoch, State: txnEmpty}, j)
}

// appendRecord produces rec to the transaction log. The cluster answers
// a produce at most once (TestHandleProduceAnswersAtMostOncePerCall), which
// is
// what lets the answer free the job.
func (tc *TxnCoordinator) appendRecord(rec txnRecord, j *txnJob) {
	tc.log.scratch = appendTxnStateRecord(tc.log.scratch[:0], rec)
	tc.log.append(wire.ProduceRequest{
		Topic: txnTopic,
		Acks:  wire.AcksAll,
	}, wire.Record{
		Key:       txnCompactionKey(rec.Tid),
		Timestamp: tc.sim.Now(),
		Payload:   tc.log.scratch,
	}, j.produced)
}

// MaterializedState scans the transaction log's current leader and
// returns the last durable state per transactional.id — what a
// restarted coordinator would rebuild. Exposed for tests and the chaos
// verifier to check the log against the live state machine.
func (tc *TxnCoordinator) MaterializedState() map[string]string {
	leader := tc.clst.Leader(txnTopic, 0)
	if leader == nil {
		return nil
	}
	log := leader.Log(txnTopic, 0)
	if log == nil {
		return nil
	}
	last := make(map[string]int8)
	log.Scan(func(e storage.Entry) bool {
		rec, err := decodeTxnStateRecord(e.Record.Payload)
		if err != nil {
			return false
		}
		last[rec.Tid] = rec.State
		return true
	})
	out := make(map[string]string, len(last))
	for tid, st := range last {
		switch st {
		case txnEmpty:
			out[tid] = "Empty"
		case txnOngoing:
			out[tid] = "Ongoing"
		case txnPrepareCommit:
			out[tid] = "PrepareCommit"
		case txnPrepareAbort:
			out[tid] = "PrepareAbort"
		}
	}
	return out
}
