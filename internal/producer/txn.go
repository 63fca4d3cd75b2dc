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

// txnOp drives one logical operation through issue / retry / timeout.
// Operations are idempotent at their destination (sequenced batches,
// deduplicated registrations), so a re-issue after a vanished answer is
// safe.
type txnOp struct {
	p        *TxnProducer
	issue    func(cb func(wire.ErrorCode))
	done     func(wire.ErrorCode)
	timer    *des.Timer
	attempts int
	finished bool
}

func (p *TxnProducer) runOp(issue func(cb func(wire.ErrorCode)), done func(wire.ErrorCode)) {
	op := &txnOp{p: p, issue: issue, done: done}
	op.timer = des.NewTimer(p.sim, op.timeoutFire)
	op.start()
}

func (op *txnOp) start() {
	if op.p.killed {
		op.abandon()
		return
	}
	op.attempts++
	op.timer.Reset(txnRequestTimeout)
	op.issue(op.complete)
}

// abandon drops the operation without a callback: the process is dead
// and nobody is listening.
func (op *txnOp) abandon() {
	op.finished = true
	op.timer.Stop()
}

func (op *txnOp) complete(code wire.ErrorCode) {
	if op.finished {
		return
	}
	if op.p.killed {
		op.abandon()
		return
	}
	switch {
	case code == wire.ErrNone:
		op.finish(code)
	case code == wire.ErrProducerFenced:
		op.p.fenced = true
		op.finish(code)
	case code.Retriable() && op.attempts < txnMaxAttempts:
		op.timer.Stop()
		sleep := des.NewTimer(op.p.sim, func() {
			if !op.finished {
				op.start()
			}
		})
		sleep.Reset(txnRetryBackoff)
	default:
		op.finish(code)
	}
}

func (op *txnOp) timeoutFire() {
	if op.finished {
		return
	}
	if op.p.killed {
		op.abandon()
		return
	}
	if op.attempts >= txnMaxAttempts {
		op.finish(wire.ErrRequestTimedOut)
		return
	}
	op.start()
}

func (op *txnOp) finish(code wire.ErrorCode) {
	op.finished = true
	op.timer.Stop()
	if op.done != nil {
		op.done(code)
	}
}

// Init obtains (or refreshes) the producer identity. Any transaction a
// previous holder of the transactional.id left open is aborted by the
// coordinator before done fires.
func (p *TxnProducer) Init(done func(wire.ErrorCode)) {
	p.runOp(func(cb func(wire.ErrorCode)) {
		p.tc.HandleInitProducerID(wire.InitProducerIDRequest{
			TransactionalID: p.cfg.TransactionalID,
			TxnTimeout:      p.cfg.TxnTimeout,
		}, func(resp wire.InitProducerIDResponse) {
			if resp.Err == wire.ErrNone {
				p.pid, p.epoch, p.inited = resp.ProducerID, resp.ProducerEpoch, true
			}
			cb(resp.Err)
		})
	}, done)
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
// fires when the batch is fully replicated or the operation fails.
func (p *TxnProducer) Send(topic string, partition int32, recs []wire.Record, done func(wire.ErrorCode)) {
	if p.failFast(done) {
		return
	}
	epoch := p.epoch
	p.runOp(func(cb func(wire.ErrorCode)) {
		p.tc.HandleAddPartitionsToTxn(wire.AddPartitionsToTxnRequest{
			TransactionalID: p.cfg.TransactionalID,
			ProducerID:      p.pid, ProducerEpoch: epoch,
			Topic: topic, Partition: partition,
		}, func(resp wire.AddPartitionsToTxnResponse) { cb(resp.Err) })
	}, func(code wire.ErrorCode) {
		if code != wire.ErrNone {
			if done != nil {
				done(code)
			}
			return
		}
		p.seq++
		seq := p.seq
		p.runOp(func(cb func(wire.ErrorCode)) {
			p.clst.HandleProduce(wire.ProduceRequest{
				Topic:     topic,
				Partition: partition,
				Acks:      wire.AcksAll,
				Batch: wire.RecordBatch{
					ProducerID:    p.pid,
					ProducerEpoch: epoch,
					BaseSequence:  seq,
					Idempotent:    true,
					Transactional: true,
					Records:       recs,
				},
			}, func(resp wire.ProduceResponse) { cb(resp.Err) })
		}, done)
	})
}

// SendOffset stages one consumed offset inside the transaction: the
// group's committed position moves to exactly this value when (and only
// when) the transaction commits.
func (p *TxnProducer) SendOffset(group, topic string, partition int32, offset int64, done func(wire.ErrorCode)) {
	if p.failFast(done) {
		return
	}
	epoch := p.epoch
	p.runOp(func(cb func(wire.ErrorCode)) {
		p.tc.HandleAddOffsetsToTxn(wire.AddOffsetsToTxnRequest{
			TransactionalID: p.cfg.TransactionalID,
			ProducerID:      p.pid, ProducerEpoch: epoch,
			Group: group,
		}, func(resp wire.AddOffsetsToTxnResponse) { cb(resp.Err) })
	}, func(code wire.ErrorCode) {
		if code != wire.ErrNone {
			if done != nil {
				done(code)
			}
			return
		}
		p.runOp(func(cb func(wire.ErrorCode)) {
			p.tc.HandleTxnOffsetCommit(wire.TxnOffsetCommitRequest{
				TransactionalID: p.cfg.TransactionalID,
				ProducerID:      p.pid, ProducerEpoch: epoch,
				Group: group, Topic: topic, Partition: partition, Offset: offset,
			}, func(resp wire.TxnOffsetCommitResponse) { cb(resp.Err) })
		}, done)
	})
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
	epoch := p.epoch
	p.runOp(func(cb func(wire.ErrorCode)) {
		p.tc.HandleEndTxn(wire.EndTxnRequest{
			TransactionalID: p.cfg.TransactionalID,
			ProducerID:      p.pid, ProducerEpoch: epoch,
			Commit: commit,
		}, func(resp wire.EndTxnResponse) { cb(resp.Err) })
	}, done)
}
