// Transactional producer client: the consume-process-produce side of
// Kafka's exactly-once pipelines. A TxnProducer binds to a
// transactional.id, obtains a fenced (producer id, epoch) identity from
// the transaction coordinator, and then runs Begin / Send / SendOffset /
// Commit-or-Abort cycles. Every batch it produces carries the identity
// and the transactional flag, so brokers fence zombie writes; every
// coordinator answer of ErrProducerFenced is fatal by contract — a
// fenced producer stops, it never retries into a newer instance's
// transaction.
package producer

import (
	"fmt"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// TxnProducerConfig tunes a transactional producer.
type TxnProducerConfig struct {
	// TransactionalID is the durable identity (required).
	TransactionalID string
	// TxnTimeout is requested from the coordinator at init (zero picks
	// the coordinator default).
	TxnTimeout time.Duration
}

const (
	// txnRequestTimeout re-issues an operation whose answer vanished,
	// e.g. a produce to a leader that died mid-request.
	txnRequestTimeout = 20 * time.Millisecond
	// txnRetryBackoff delays re-issue after a retriable error.
	txnRetryBackoff = 2 * time.Millisecond
	// txnMaxAttempts bounds retries per operation; exhaustion surfaces
	// ErrRequestTimedOut.
	txnMaxAttempts = 64
)

// TxnProducer is a transactional producer instance. Not safe for
// concurrent use; the DES is single-threaded.
type TxnProducer struct {
	sim  *des.Simulator
	clst *cluster.Cluster
	tc   *coordinator.TxnCoordinator
	cfg  TxnProducerConfig

	pid    uint64
	epoch  uint32
	seq    uint64
	inited bool
	inTxn  bool
	fenced bool
	killed bool

	corr uint32              // the last correlation id handed out
	ops  des.FreeList[txnOp] // finished operations, for reuse
}

// NewTxnProducer builds a transactional producer over direct handles to
// the cluster (data path) and the transaction coordinator (control
// path). Call Init before the first transaction.
func NewTxnProducer(sim *des.Simulator, clst *cluster.Cluster, tc *coordinator.TxnCoordinator, cfg TxnProducerConfig) (*TxnProducer, error) {
	if sim == nil || clst == nil || tc == nil {
		return nil, fmt.Errorf("producer: txn producer needs sim, cluster, coordinator")
	}
	if cfg.TransactionalID == "" {
		return nil, fmt.Errorf("producer: transactional id required")
	}
	sim.DeclareDelay(txnRetryBackoff)
	return &TxnProducer{sim: sim, clst: clst, tc: tc, cfg: cfg}, nil
}

// Epoch returns the current producer epoch (valid after Init).
func (p *TxnProducer) Epoch() uint32 { return p.epoch }

// Fenced reports whether the producer has hit the fatal
// ErrProducerFenced: a newer instance of its transactional.id exists
// and this one must stop.
func (p *TxnProducer) Fenced() bool { return p.fenced }

// InTxn reports whether a transaction is open.
func (p *TxnProducer) InTxn() bool { return p.inTxn }

// Kill models the producer's process dying: pending operations stop
// retrying and their callbacks never fire. Whatever transaction was open
// dangles until the coordinator times it out or a successor's
// InitProducerId aborts it.
func (p *TxnProducer) Kill() { p.killed = true }

// The requests an operation issues. Send and SendOffset are two requests
// each: the registration with the coordinator, then the write it covers.
const (
	opInit            int8 = iota // InitProducerId
	opAddPartitions               // Send, step one: AddPartitionsToTxn
	opProduce                     // Send, step two: the transactional batch
	opAddOffsets                  // SendOffset, step one: AddOffsetsToTxn
	opTxnOffsetCommit             // SendOffset, step two: TxnOffsetCommit
	opEndTxn                      // Commit / Abort
)

// txnOp drives one request through issue / retry / timeout, then the
// operation's next request if it has one, then done. Requests are
// idempotent at their destination (sequenced batches, deduplicated
// registrations), so a re-issue after a vanished answer is safe.
//
// An op is a reusable job: the request is kind plus the fields below,
// the callbacks handed out with it are bound once, and finished ops wait
// on the producer's free list. What tells a current answer from a late
// one is therefore not which closure it reaches but corr: one id per
// request, shared by its re-issues, echoed by every response (DESIGN.md
// §7, "Control-plane requests").
type txnOp struct {
	p    *TxnProducer
	kind int8
	// corr is the outstanding request's correlation id; zero while the op
	// is finished. Any answer carrying it completes the request — one to
	// an earlier issue as well as one to the latest — and any other
	// answer is one to a request this object has since moved on from.
	corr     uint32
	attempts int
	// timer is the request timeout while an answer is awaited and the
	// retry back-off after a retriable one; backoff says which.
	timer   *des.Timer
	backoff bool
	done    func(wire.ErrorCode)

	// The request's fields; epoch is the producer's when the operation
	// began.
	epoch     uint32
	topic     string
	partition int32
	recs      []wire.Record
	seq       uint64
	group     string
	offset    int64
	commit    bool

	// Bound once per op.
	initDone          func(wire.InitProducerIDResponse)
	addPartitionsDone func(wire.AddPartitionsToTxnResponse)
	produceDone       func(wire.ProduceResponse)
	addOffsetsDone    func(wire.AddOffsetsToTxnResponse)
	offsetCommitDone  func(wire.TxnOffsetCommitResponse)
	endTxnDone        func(wire.EndTxnResponse)
}

// newOp returns an idle op for an operation that ends in done.
func (p *TxnProducer) newOp(done func(wire.ErrorCode)) *txnOp {
	op := p.ops.Get()
	if op.timer == nil {
		op.p = p
		op.timer = des.NewTimer(p.sim, op.timerFire)
		op.initDone = op.onInit
		op.addPartitionsDone = func(r wire.AddPartitionsToTxnResponse) { op.complete(r.CorrelationID, r.Err) }
		op.produceDone = func(r wire.ProduceResponse) { op.complete(r.CorrelationID, r.Err) }
		op.addOffsetsDone = func(r wire.AddOffsetsToTxnResponse) { op.complete(r.CorrelationID, r.Err) }
		op.offsetCommitDone = func(r wire.TxnOffsetCommitResponse) { op.complete(r.CorrelationID, r.Err) }
		op.endTxnDone = func(r wire.EndTxnResponse) { op.complete(r.CorrelationID, r.Err) }
	}
	op.done, op.epoch = done, p.epoch
	return op
}

// begin starts the op's next request under a fresh correlation id.
func (op *txnOp) begin(kind int8) {
	op.p.corr++
	op.kind, op.corr, op.attempts = kind, op.p.corr, 0
	op.start()
}

func (op *txnOp) start() {
	p := op.p
	if p.killed {
		op.abandon()
		return
	}
	op.attempts++
	op.backoff = false
	op.timer.Reset(txnRequestTimeout)
	switch op.kind {
	case opInit:
		p.tc.HandleInitProducerID(wire.InitProducerIDRequest{
			CorrelationID:   op.corr,
			TransactionalID: p.cfg.TransactionalID,
			TxnTimeout:      p.cfg.TxnTimeout,
		}, op.initDone)
	case opAddPartitions:
		p.tc.HandleAddPartitionsToTxn(wire.AddPartitionsToTxnRequest{
			CorrelationID:   op.corr,
			TransactionalID: p.cfg.TransactionalID,
			ProducerID:      p.pid, ProducerEpoch: op.epoch,
			Topic: op.topic, Partition: op.partition,
		}, op.addPartitionsDone)
	case opProduce:
		p.clst.HandleProduce(wire.ProduceRequest{
			CorrelationID: op.corr,
			Topic:         op.topic,
			Partition:     op.partition,
			Acks:          wire.AcksAll,
			Batch: wire.RecordBatch{
				ProducerID:    p.pid,
				ProducerEpoch: op.epoch,
				BaseSequence:  op.seq,
				Idempotent:    true,
				Transactional: true,
				Records:       op.recs,
			},
		}, op.produceDone)
	case opAddOffsets:
		p.tc.HandleAddOffsetsToTxn(wire.AddOffsetsToTxnRequest{
			CorrelationID:   op.corr,
			TransactionalID: p.cfg.TransactionalID,
			ProducerID:      p.pid, ProducerEpoch: op.epoch,
			Group: op.group,
		}, op.addOffsetsDone)
	case opTxnOffsetCommit:
		p.tc.HandleTxnOffsetCommit(wire.TxnOffsetCommitRequest{
			CorrelationID:   op.corr,
			TransactionalID: p.cfg.TransactionalID,
			ProducerID:      p.pid, ProducerEpoch: op.epoch,
			Group: op.group, Topic: op.topic, Partition: op.partition, Offset: op.offset,
		}, op.offsetCommitDone)
	case opEndTxn:
		p.tc.HandleEndTxn(wire.EndTxnRequest{
			CorrelationID:   op.corr,
			TransactionalID: p.cfg.TransactionalID,
			ProducerID:      p.pid, ProducerEpoch: op.epoch,
			Commit: op.commit,
		}, op.endTxnDone)
	}
}

// abandon idles the op without a callback. On its own it is how a killed
// producer's operations end: the process is dead and nobody is listening.
func (op *txnOp) abandon() {
	op.corr, op.done, op.recs = 0, nil, nil
	op.timer.Stop()
}

// onInit adopts the identity a current InitProducerId answer grants.
func (op *txnOp) onInit(resp wire.InitProducerIDResponse) {
	if resp.CorrelationID == op.corr && resp.Err == wire.ErrNone {
		op.p.pid, op.p.epoch, op.p.inited = resp.ProducerID, resp.ProducerEpoch, true
	}
	op.complete(resp.CorrelationID, resp.Err)
}

// complete takes one answer. An answer whose id is not the outstanding
// request's is late — its request finished, by another answer or by
// running out of attempts, and the op may be serving another by now —
// and is dropped.
func (op *txnOp) complete(corr uint32, code wire.ErrorCode) {
	if corr != op.corr {
		return
	}
	p := op.p
	if p.killed {
		op.abandon()
		return
	}
	switch {
	case code == wire.ErrNone && op.kind == opAddPartitions:
		p.seq++
		op.seq = p.seq
		op.begin(opProduce)
	case code == wire.ErrNone && op.kind == opAddOffsets:
		op.begin(opTxnOffsetCommit)
	case code == wire.ErrNone:
		op.finish(code)
	case code == wire.ErrProducerFenced:
		p.fenced = true
		op.finish(code)
	case code.Retriable() && op.attempts < txnMaxAttempts:
		// An earlier issue's retriable answer during the back-off changes
		// nothing: the re-issue is already scheduled.
		if !op.backoff {
			op.backoff = true
			op.timer.Reset(txnRetryBackoff)
		}
	default:
		op.finish(code)
	}
}

func (op *txnOp) timerFire() {
	switch {
	case op.p.killed:
		op.abandon()
	case op.backoff || op.attempts < txnMaxAttempts:
		op.start()
	default:
		op.finish(wire.ErrRequestTimedOut)
	}
}

// finish ends the operation: the op is free for the next one before done
// runs, so an operation begun from inside done reuses it.
func (op *txnOp) finish(code wire.ErrorCode) {
	done := op.done
	op.abandon()
	op.p.ops.Put(op)
	if done != nil {
		done(code)
	}
}

// Init obtains (or refreshes) the producer identity. Any transaction a
// previous holder of the transactional.id left open is aborted by the
// coordinator before done fires.
func (p *TxnProducer) Init(done func(wire.ErrorCode)) {
	p.newOp(done).begin(opInit)
}

// Begin opens a transaction. Purely client-side, as in Kafka: the
// coordinator learns of the transaction at the first AddPartitions or
// offset commit.
func (p *TxnProducer) Begin() error {
	if p.fenced {
		return fmt.Errorf("producer: %s fenced", p.cfg.TransactionalID)
	}
	if !p.inited {
		return fmt.Errorf("producer: %s not initialised", p.cfg.TransactionalID)
	}
	if p.inTxn {
		return fmt.Errorf("producer: %s transaction already open", p.cfg.TransactionalID)
	}
	p.inTxn = true
	return nil
}

// failFast short-circuits operations on a fenced or idle producer.
func (p *TxnProducer) failFast(done func(wire.ErrorCode)) bool {
	if p.fenced {
		if done != nil {
			done(wire.ErrProducerFenced)
		}
		return true
	}
	if !p.inTxn {
		if done != nil {
			done(wire.ErrInvalidTxnState)
		}
		return true
	}
	return false
}

// Send registers the partition with the transaction and produces one
// transactional batch to it (acks=all, idempotent, epoch-stamped). done
// fires when the batch is fully replicated or the operation fails. recs
// is handed over: every replica's log references those records, so
// neither their headers nor their payload bytes (nor the slice's backing
// array) may be written after the call.
func (p *TxnProducer) Send(topic string, partition int32, recs []wire.Record, done func(wire.ErrorCode)) {
	if p.failFast(done) {
		return
	}
	op := p.newOp(done)
	op.topic, op.partition, op.recs = topic, partition, recs
	op.begin(opAddPartitions)
}

// SendOffset stages one consumed offset inside the transaction: the
// group's committed position moves to exactly this value when (and only
// when) the transaction commits.
func (p *TxnProducer) SendOffset(group, topic string, partition int32, offset int64, done func(wire.ErrorCode)) {
	if p.failFast(done) {
		return
	}
	op := p.newOp(done)
	op.group, op.topic, op.partition, op.offset = group, topic, partition, offset
	op.begin(opAddOffsets)
}

// Commit ends the transaction with a commit decision; done fires once
// the coordinator has driven markers and offsets to every destination.
func (p *TxnProducer) Commit(done func(wire.ErrorCode)) { p.endTxn(true, done) }

// Abort ends the transaction with an abort decision: its records become
// permanently invisible to read_committed readers and its staged
// offsets are discarded.
func (p *TxnProducer) Abort(done func(wire.ErrorCode)) { p.endTxn(false, done) }

func (p *TxnProducer) endTxn(commit bool, done func(wire.ErrorCode)) {
	if p.failFast(done) {
		return
	}
	p.inTxn = false
	op := p.newOp(done)
	op.commit = commit
	op.begin(opEndTxn)
}
