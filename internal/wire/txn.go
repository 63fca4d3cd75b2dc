package wire

import "time"

// Transaction-coordination messages, mirroring Kafka's transactional
// producer protocol: InitProducerId binds a transactional.id to a
// (ProducerID, ProducerEpoch) pair and fences zombies by bumping the
// epoch; AddPartitionsToTxn/AddOffsetsToTxn register the partitions and
// consumer group a transaction touches; TxnOffsetCommit stages consumed
// offsets inside the transaction; EndTxn commits or aborts, driving the
// coordinator's two-phase marker writes. Every fenced path answers
// ErrProducerFenced, which is fatal to the producer by contract.

// Control-record keys: a batch with the Control flag carries exactly one
// record whose Key names the marker type. Brokers interpret the marker
// to close the producer's ongoing transaction on that partition; readers
// never see control records at either isolation level.
const (
	ControlKeyCommit uint64 = 0
	ControlKeyAbort  uint64 = 1
)

// TxnPartition names one topic partition touched by a transaction.
type TxnPartition struct {
	Topic     string
	Partition int32
}

// TxnOffset is one consumed-offset commit staged inside a transaction.
type TxnOffset struct {
	Topic     string
	Partition int32
	Offset    int64
}

// ControlRecord builds the single record of a transaction-marker batch.
func ControlRecord(commit bool, at time.Duration) Record {
	key := ControlKeyAbort
	if commit {
		key = ControlKeyCommit
	}
	return Record{Key: key, Timestamp: at}
}

// InitProducerIDRequest asks the transaction coordinator for a producer
// id and a fresh epoch for a transactional.id. TxnTimeout is the
// longest the coordinator will let one of this producer's transactions
// stay open before aborting it (zero picks the coordinator default).
type InitProducerIDRequest struct {
	CorrelationID   uint32
	TransactionalID string
	TxnTimeout      time.Duration
}

// InitProducerIDResponse carries the assigned identity. Any transaction
// the transactional.id's previous holder left open has been aborted by
// the time this response is issued.
type InitProducerIDResponse struct {
	CorrelationID uint32
	ProducerID    uint64
	ProducerEpoch uint32
	Err           ErrorCode
}

// AddPartitionsToTxnRequest registers one topic partition with the
// current transaction before any data is produced to it — the
// coordinator must know every touched partition to place markers.
type AddPartitionsToTxnRequest struct {
	CorrelationID   uint32
	TransactionalID string
	ProducerID      uint64
	ProducerEpoch   uint32
	Topic           string
	Partition       int32
}

// AddPartitionsToTxnResponse acknowledges (or fences) a registration.
type AddPartitionsToTxnResponse struct {
	CorrelationID uint32
	Err           ErrorCode
}

// AddOffsetsToTxnRequest registers a consumer group whose offsets the
// transaction will commit atomically with its output.
type AddOffsetsToTxnRequest struct {
	CorrelationID   uint32
	TransactionalID string
	ProducerID      uint64
	ProducerEpoch   uint32
	Group           string
}

// AddOffsetsToTxnResponse acknowledges (or fences) the registration.
type AddOffsetsToTxnResponse struct {
	CorrelationID uint32
	Err           ErrorCode
}

// TxnOffsetCommitRequest stages one consumed position inside the
// transaction: it becomes durable in the group's offsets log only when
// the transaction commits, and is discarded on abort.
type TxnOffsetCommitRequest struct {
	CorrelationID   uint32
	TransactionalID string
	ProducerID      uint64
	ProducerEpoch   uint32
	Group           string
	Topic           string
	Partition       int32
	Offset          int64
}

// TxnOffsetCommitResponse acknowledges (or fences) a staged offset.
type TxnOffsetCommitResponse struct {
	CorrelationID uint32
	Err           ErrorCode
}

// EndTxnRequest finishes the current transaction: Commit selects the
// marker the coordinator writes into every registered partition.
type EndTxnRequest struct {
	CorrelationID   uint32
	TransactionalID string
	ProducerID      uint64
	ProducerEpoch   uint32
	Commit          bool
}

// EndTxnResponse reports the transaction outcome. ErrNone means the
// decision is durable and every marker and staged offset landed.
type EndTxnResponse struct {
	CorrelationID uint32
	Err           ErrorCode
}
