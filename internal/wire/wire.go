// Package wire defines the Kafka-style binary protocol spoken across the
// emulated network between a client and the broker model: length-prefixed
// frames, correlation IDs, and CRC-protected record batches, carrying the
// Produce, Fetch and Metadata exchanges. The encoding is a simplified but
// faithful analogue of Kafka's protocol — big-endian fixed width integers,
// size-prefixed byte blobs — so that message sizes on the emulated network
// carry realistic framing overhead.
//
// The group, offset and transaction messages (group.go, txn.go) are
// request/response structs only: the control plane is an in-process call
// into the coordinator — the testbed injects faults on the producer's
// link alone (Sec. III-E) — so they have no byte format to keep in step.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// API keys identify request types, mirroring Kafka's ApiKey field (the
// group-coordination keys use Kafka's real numbering).
const (
	APIProduce            uint16 = 0
	APIFetch              uint16 = 1
	APIMetadata           uint16 = 3
	APIOffsetCommit       uint16 = 8
	APIOffsetFetch        uint16 = 9
	APIJoinGroup          uint16 = 11
	APIHeartbeat          uint16 = 12
	APILeaveGroup         uint16 = 13
	APISyncGroup          uint16 = 14
	APIInitProducerID     uint16 = 22
	APIAddPartitionsToTxn uint16 = 24
	APIAddOffsetsToTxn    uint16 = 25
	APIEndTxn             uint16 = 26
	APITxnOffsetCommit    uint16 = 28
)

// ErrorCode is the broker-reported outcome of a request, mirroring
// Kafka's error_code response field.
type ErrorCode uint16

// Error codes. Values are stable on the wire.
const (
	ErrNone ErrorCode = iota
	ErrUnknownTopicOrPartition
	ErrNotLeader
	ErrRequestTimedOut
	ErrCorruptMessage
	ErrDuplicateSequence
	ErrBrokerUnavailable
	ErrNotEnoughReplicas
	ErrCoordinatorNotAvailable
	ErrIllegalGeneration
	ErrUnknownMemberID
	ErrRebalanceInProgress
	ErrNoCommittedOffset
	ErrProducerFenced
	ErrInvalidTxnState
	ErrConcurrentTransactions
)

// NumErrorCodes is the number of defined error codes; codes are
// contiguous from ErrNone, so fixed-size per-code tables can be indexed
// by the code value.
const NumErrorCodes = 16

// SeqCacheSize is the number of recent batch sequences a broker
// remembers per producer for idempotent de-duplication (Kafka keeps 5).
// Idempotent producers must keep MaxInFlight at or below it: a retry
// arriving after more than SeqCacheSize newer batches could no longer
// be recognised as a duplicate.
const SeqCacheSize = 16

var errorNames = map[ErrorCode]string{
	ErrNone:                    "NONE",
	ErrUnknownTopicOrPartition: "UNKNOWN_TOPIC_OR_PARTITION",
	ErrNotLeader:               "NOT_LEADER",
	ErrRequestTimedOut:         "REQUEST_TIMED_OUT",
	ErrCorruptMessage:          "CORRUPT_MESSAGE",
	ErrDuplicateSequence:       "DUPLICATE_SEQUENCE",
	ErrBrokerUnavailable:       "BROKER_UNAVAILABLE",
	ErrNotEnoughReplicas:       "NOT_ENOUGH_REPLICAS",
	ErrCoordinatorNotAvailable: "COORDINATOR_NOT_AVAILABLE",
	ErrIllegalGeneration:       "ILLEGAL_GENERATION",
	ErrUnknownMemberID:         "UNKNOWN_MEMBER_ID",
	ErrRebalanceInProgress:     "REBALANCE_IN_PROGRESS",
	ErrNoCommittedOffset:       "NO_COMMITTED_OFFSET",
	ErrProducerFenced:          "PRODUCER_FENCED",
	ErrInvalidTxnState:         "INVALID_TXN_STATE",
	ErrConcurrentTransactions:  "CONCURRENT_TRANSACTIONS",
}

// String implements fmt.Stringer.
func (e ErrorCode) String() string {
	if s, ok := errorNames[e]; ok {
		return s
	}
	return fmt.Sprintf("ERROR_%d", uint16(e))
}

// Retriable reports whether a producer may retry a request that failed
// with this code, following Kafka's retriable-exception taxonomy.
func (e ErrorCode) Retriable() bool {
	switch e {
	case ErrNotLeader, ErrRequestTimedOut, ErrBrokerUnavailable, ErrNotEnoughReplicas,
		ErrCoordinatorNotAvailable, ErrRebalanceInProgress, ErrConcurrentTransactions:
		return true
	default:
		return false
	}
}

// Decoding errors.
var (
	ErrShortBuffer = errors.New("wire: buffer too short")
	ErrBadCRC      = errors.New("wire: record batch CRC mismatch")
	ErrBadFrame    = errors.New("wire: malformed frame")
)

// Record is a single message: a unique key (the paper's "incremental
// message unique key", Sec. III-E), a producer timestamp, and an opaque
// payload whose length is the message size M.
type Record struct {
	Key       uint64
	Timestamp time.Duration // virtual time the record entered the producer
	Payload   []byte
}

// minRecordSize is the wire size of a record with an empty payload: key
// (8), timestamp (8), payload length (4).
const minRecordSize = 20

// EncodedSize returns the wire size of the record in bytes.
func (r Record) EncodedSize() int {
	return minRecordSize + len(r.Payload)
}

func (r Record) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, r.Key)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Timestamp))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Payload)))
	return append(b, r.Payload...)
}

// decodeRecord parses one record. The returned payload is a zero-copy
// alias into b (capacity-capped so appends cannot scribble past it); see
// DecodeRecordBatch for the ownership contract.
func decodeRecord(b []byte) (Record, []byte, error) {
	if len(b) < minRecordSize {
		return Record{}, nil, fmt.Errorf("record header: %w", ErrShortBuffer)
	}
	var r Record
	r.Key = binary.BigEndian.Uint64(b)
	r.Timestamp = time.Duration(binary.BigEndian.Uint64(b[8:]))
	n := int(binary.BigEndian.Uint32(b[16:]))
	b = b[minRecordSize:]
	if len(b) < n {
		return Record{}, nil, fmt.Errorf("record payload (%d bytes): %w", n, ErrShortBuffer)
	}
	r.Payload = b[:n:n]
	return r, b[n:], nil
}

// RecordBatch is an ordered group of records protected by a CRC32-C
// checksum, as in Kafka's record-batch format. BaseSequence supports the
// idempotent-producer extension: brokers de-duplicate batches by
// (ProducerID, BaseSequence), but only when the batch's Idempotent flag
// is set. ProducerID itself is stamped on every batch — idempotent or
// not — so per-producer sequence streams stay distinguishable when
// several producers share a partition (the broker's duplicate-append
// observation relies on that).
//
// The transactional extension adds ProducerEpoch — the fencing token the
// transaction coordinator bumps on each InitProducerId, which brokers
// compare against the highest epoch they have seen for the producer —
// and two more flag bits: Transactional marks the batch as part of an
// open transaction (invisible at read_committed until a marker commits
// it), and Control marks a one-record commit/abort marker batch written
// by the transaction coordinator, never by a client.
type RecordBatch struct {
	ProducerID    uint64
	ProducerEpoch uint32
	BaseSequence  uint64
	Idempotent    bool
	Transactional bool
	Control       bool
	Records       []Record
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Batch flag bits.
const (
	batchFlagIdempotent    = 1 << 0
	batchFlagTransactional = 1 << 1
	batchFlagControl       = 1 << 2
	batchFlagsKnown        = batchFlagIdempotent | batchFlagTransactional | batchFlagControl
)

// batchHeaderSize is the fixed batch header: producer id (8), producer
// epoch (4), base sequence (8), flags (1), record count (4), CRC (4).
const batchHeaderSize = 29

// EncodedSize returns the wire size of the batch in bytes.
func (b RecordBatch) EncodedSize() int {
	n := batchHeaderSize
	for _, r := range b.Records {
		n += r.EncodedSize()
	}
	return n
}

// Encode appends the batch encoding to dst and returns the result. The
// records are encoded directly into dst and the CRC is patched in
// afterwards, so encoding into a reused buffer allocates nothing.
func (b RecordBatch) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, b.ProducerID)
	dst = binary.BigEndian.AppendUint32(dst, b.ProducerEpoch)
	dst = binary.BigEndian.AppendUint64(dst, b.BaseSequence)
	var flags byte
	if b.Idempotent {
		flags |= batchFlagIdempotent
	}
	if b.Transactional {
		flags |= batchFlagTransactional
	}
	if b.Control {
		flags |= batchFlagControl
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Records)))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC placeholder, patched below
	bodyStart := len(dst)
	for _, r := range b.Records {
		dst = r.encode(dst)
	}
	binary.BigEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[bodyStart:], castagnoli))
	return dst
}

// Slab is run-lifetime storage for cloned record batches: Clone carves
// payload bytes and Record headers out of chunks the slab allocates as it
// fills, so a long-lived decoder pays a couple of allocations per few
// hundred records, not per request. A payload byte-equal to the one the
// slab stored last is not stored again: its clone shares that copy, so a
// producer's fixed-size messages cost one copy per run of equal payloads.
// Storage handed out is never reused or written again, and a chunk is
// garbage once nothing cloned from it is referenced. The zero value is
// ready to use.
type Slab struct {
	bytes []byte   // current payload chunk; len is what has been handed out
	recs  []Record // current header chunk, likewise
	last  []byte   // the payload stored last, shared by equal successors
}

// Slab chunk sizes. The first chunk is small because most slabs belong to
// short runs (a 300-message chaos trial must not pay for zeroing a large
// chunk it never fills); chunks then double up to a ceiling that keeps
// them inside the allocator's small-object classes.
const (
	slabMinBytes   = 1 << 10
	slabMaxBytes   = 32 << 10
	slabMinRecords = 16
	slabMaxRecords = 512
)

// carve takes n fresh elements from the current chunk. When too few are
// left it starts a new chunk — twice the last one's size, within [lo, hi]
// — and abandons the old tail; a request beyond hi gets a chunk of its
// own and leaves the current one in place.
func carve[T any](chunk *[]T, n, lo, hi int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		if n > hi {
			return make([]T, n)
		}
		c = make([]T, 0, min(max(2*cap(c), 2*n, lo), hi))
	}
	used := len(c)
	*chunk = c[:used+n]
	return c[used : used+n : used+n]
}

// Clone deep-copies recs — payloads and headers — into the slab and
// returns the copy. Consumers that retain decoded records beyond the
// lifetime of the decode source buffer (for example across simulated
// time, or past the next Splitter.Push) must clone them; see
// DecodeRecordBatch for the ownership contract. A cloned payload never
// shares bytes with its source, but it may share them with an earlier
// equal clone; an empty payload clones to nil. The returned records —
// headers and bytes — are immutable from here on: any number of logs may
// end up referencing them (storage.Log.Append).
func (s *Slab) Clone(recs []Record) []Record {
	out := carve(&s.recs, len(recs), slabMinRecords, slabMaxRecords)
	for i := range recs {
		out[i] = recs[i]
		p := recs[i].Payload
		if len(p) == 0 {
			out[i].Payload = nil
			continue
		}
		if !bytes.Equal(p, s.last) {
			s.last = carve(&s.bytes, len(p), slabMinBytes, slabMaxBytes)
			copy(s.last, p)
		}
		out[i].Payload = s.last
	}
	return out
}

// DecodeRecordBatch parses a batch and verifies its CRC, returning the
// remaining bytes.
//
// Ownership: record payloads are zero-copy aliases into b. They remain
// valid exactly as long as b's bytes do — callers that decode from a
// reused or recycled buffer and retain the records must copy them first
// (Slab.Clone). In particular, frame bodies returned by Splitter.Push
// are valid only until the next Push, so records decoded from split
// frames and retained past the current callback must be cloned.
func DecodeRecordBatch(b []byte) (RecordBatch, []byte, error) {
	return (*Decoder)(nil).recordBatch(b)
}

// recordBatch is DecodeRecordBatch decoding records into the decoder's
// reused scratch slice (see Decoder in messages.go).
func (d *Decoder) recordBatch(b []byte) (RecordBatch, []byte, error) {
	if len(b) < batchHeaderSize {
		return RecordBatch{}, nil, fmt.Errorf("batch header: %w", ErrShortBuffer)
	}
	var batch RecordBatch
	batch.ProducerID = binary.BigEndian.Uint64(b)
	batch.ProducerEpoch = binary.BigEndian.Uint32(b[8:])
	batch.BaseSequence = binary.BigEndian.Uint64(b[12:])
	flags := b[20]
	// The CRC covers the records only, so the header is checked field by
	// field: a flag bit no encoder sets is a malformed batch, not one more
	// spelling of a valid one.
	if flags&^batchFlagsKnown != 0 {
		return RecordBatch{}, nil, fmt.Errorf("batch flags %#x: %w", flags, ErrBadFrame)
	}
	batch.Idempotent = flags&batchFlagIdempotent != 0
	batch.Transactional = flags&batchFlagTransactional != 0
	batch.Control = flags&batchFlagControl != 0
	count := int(binary.BigEndian.Uint32(b[21:]))
	crc := binary.BigEndian.Uint32(b[25:])
	b = b[batchHeaderSize:]
	start := b
	recs := d.recordScratch(count, b)
	for i := 0; i < count; i++ {
		r, rest, err := decodeRecord(b)
		if err != nil {
			return RecordBatch{}, nil, fmt.Errorf("record %d: %w", i, err)
		}
		recs = append(recs, r)
		b = rest
	}
	consumed := len(start) - len(b)
	if crc32.Checksum(start[:consumed], castagnoli) != crc {
		return RecordBatch{}, nil, ErrBadCRC
	}
	batch.Records = recs
	d.keepRecordScratch(recs)
	return batch, b, nil
}
