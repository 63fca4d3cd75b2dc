package wire

import (
	"encoding/binary"
	"fmt"
)

// RequiredAcks mirrors the producer "acks" setting: how many broker
// acknowledgements a produce request demands before the broker responds.
type RequiredAcks int16

// Acks settings. AcksNone is at-most-once fire-and-forget; AcksLeader
// acknowledges after the leader persists; AcksAll waits for the full ISR.
const (
	AcksNone   RequiredAcks = 0
	AcksLeader RequiredAcks = 1
	AcksAll    RequiredAcks = -1
)

// String implements fmt.Stringer.
func (a RequiredAcks) String() string {
	switch a {
	case AcksNone:
		return "acks=0"
	case AcksLeader:
		return "acks=1"
	case AcksAll:
		return "acks=all"
	default:
		return fmt.Sprintf("acks=%d", int16(a))
	}
}

// ProduceRequest carries one record batch to a topic partition.
type ProduceRequest struct {
	CorrelationID uint32
	Topic         string
	Partition     int32
	Acks          RequiredAcks
	Batch         RecordBatch
}

// ProduceResponse acknowledges (or rejects) a produce request.
type ProduceResponse struct {
	CorrelationID uint32
	Topic         string
	Partition     int32
	BaseOffset    int64
	Err           ErrorCode
}

// IsolationLevel selects which records a fetch may observe, mirroring
// Kafka's isolation.level consumer setting.
type IsolationLevel uint8

// Isolation levels. ReadUncommitted (the zero value, so every pre-txn
// caller keeps its behaviour) returns all data records up to the high
// watermark, open and aborted transactions included. ReadCommitted
// bounds the fetch at the last stable offset and filters out records
// from aborted transactions. Control (marker) records are never
// returned at either level, as in Kafka.
const (
	ReadUncommitted IsolationLevel = 0
	ReadCommitted   IsolationLevel = 1
)

// String implements fmt.Stringer.
func (l IsolationLevel) String() string {
	switch l {
	case ReadUncommitted:
		return "read_uncommitted"
	case ReadCommitted:
		return "read_committed"
	default:
		return fmt.Sprintf("isolation_%d", uint8(l))
	}
}

// FetchRequest asks for up to MaxRecords records starting at Offset.
type FetchRequest struct {
	CorrelationID uint32
	Topic         string
	Partition     int32
	Offset        int64
	MaxRecords    int32
	Isolation     IsolationLevel
}

// FetchResponse returns the records and the partition high watermark.
// NextOffset is the fetch position after this response — past the last
// returned record and past any filtered (control or aborted) offsets the
// scan skipped, so a consumer advancing by record count alone would stall
// on a filtered gap. LastStable is the partition's last stable offset
// (first offset still held by an open transaction, or the high watermark
// when none is open); read_committed fetches never return records at or
// beyond it.
type FetchResponse struct {
	CorrelationID uint32
	Topic         string
	Partition     int32
	HighWatermark int64
	NextOffset    int64
	LastStable    int64
	Err           ErrorCode
	Records       []Record
}

// MetadataRequest asks which broker leads each partition of a topic.
type MetadataRequest struct {
	Topic string
}

// PartitionMetadata describes one partition's leadership.
type PartitionMetadata struct {
	Partition int32
	Leader    int32
	Replicas  []int32
}

// MetadataResponse lists partition leadership for a topic.
type MetadataResponse struct {
	Topic      string
	Err        ErrorCode
	Partitions []PartitionMetadata
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Decoder decodes messages with per-connection scratch reuse: topic
// strings matching Topic are interned (no string allocation per message)
// and record slices are decoded into a reused backing array, so a
// steady-state connection decodes whole batches with O(1) allocations.
//
// Ownership: the Records slice of a ProduceRequest or FetchResponse
// decoded through the same Decoder reuses one backing array — consume or
// copy (Slab.Clone) the records before the next decode on this
// Decoder. Payloads follow the recordBatch aliasing contract. A
// nil *Decoder is valid and decodes without any reuse.
type Decoder struct {
	Topic   string // expected topic; matching decodes return this string
	records []Record
}

func (d *Decoder) decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("string length: %w", ErrShortBuffer)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, fmt.Errorf("string body (%d bytes): %w", n, ErrShortBuffer)
	}
	// The comparison below does not allocate; only a topic the decoder
	// has not been primed with costs a fresh string.
	if d != nil && len(d.Topic) == n && string(b[:n]) == d.Topic {
		return d.Topic, b[n:], nil
	}
	return string(b[:n]), b[n:], nil
}

// produceHeaderSize is the produce request body ahead of its topic and
// batch: correlation id (4), topic length (2), partition (4), acks (2).
const produceHeaderSize = 12

// Encode serialises the request body (without the frame header).
func (r ProduceRequest) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.CorrelationID)
	dst = appendString(dst, r.Topic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Partition))
	dst = binary.BigEndian.AppendUint16(dst, uint16(r.Acks))
	return r.Batch.Encode(dst)
}

// ProduceFrameSize returns the size of the framed produce request Encode
// and a frame header make of a topic topicLen bytes long and a batch of
// records records carrying payloadBytes payload bytes in all. It needs
// nothing the request is built from, so a sender can ask its socket
// whether the frame fits before building, encoding and checksumming it.
func ProduceFrameSize(topicLen, records, payloadBytes int) int {
	return FrameSize(produceHeaderSize + topicLen + batchHeaderSize + records*minRecordSize + payloadBytes)
}

// ProduceRequest parses a request body produced by Encode, with scratch
// reuse; see Decoder for the ownership contract.
func (d *Decoder) ProduceRequest(b []byte) (ProduceRequest, error) {
	var r ProduceRequest
	if len(b) < 4 {
		return r, fmt.Errorf("produce correlation id: %w", ErrShortBuffer)
	}
	r.CorrelationID = binary.BigEndian.Uint32(b)
	b = b[4:]
	topic, b, err := d.decodeString(b)
	if err != nil {
		return r, fmt.Errorf("produce topic: %w", err)
	}
	r.Topic = topic
	if len(b) < 6 {
		return r, fmt.Errorf("produce partition/acks: %w", ErrShortBuffer)
	}
	r.Partition = int32(binary.BigEndian.Uint32(b))
	r.Acks = RequiredAcks(int16(binary.BigEndian.Uint16(b[4:])))
	b = b[6:]
	batch, rest, err := d.recordBatch(b)
	if err != nil {
		return r, fmt.Errorf("produce batch: %w", err)
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("produce trailing %d bytes: %w", len(rest), ErrBadFrame)
	}
	r.Batch = batch
	return r, nil
}

// Encode serialises the response body.
func (r ProduceResponse) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.CorrelationID)
	dst = appendString(dst, r.Topic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Partition))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.BaseOffset))
	return binary.BigEndian.AppendUint16(dst, uint16(r.Err))
}

// ProduceResponse parses a response body produced by Encode, with topic
// interning.
func (d *Decoder) ProduceResponse(b []byte) (ProduceResponse, error) {
	var r ProduceResponse
	if len(b) < 4 {
		return r, fmt.Errorf("produce-response correlation id: %w", ErrShortBuffer)
	}
	r.CorrelationID = binary.BigEndian.Uint32(b)
	b = b[4:]
	topic, b, err := d.decodeString(b)
	if err != nil {
		return r, fmt.Errorf("produce-response topic: %w", err)
	}
	r.Topic = topic
	if len(b) != 14 {
		return r, fmt.Errorf("produce-response tail: %w", ErrBadFrame)
	}
	r.Partition = int32(binary.BigEndian.Uint32(b))
	r.BaseOffset = int64(binary.BigEndian.Uint64(b[4:]))
	r.Err = ErrorCode(binary.BigEndian.Uint16(b[12:]))
	return r, nil
}

// Encode serialises the response body.
func (r FetchResponse) Encode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, r.CorrelationID)
	dst = appendString(dst, r.Topic)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Partition))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.HighWatermark))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.NextOffset))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.LastStable))
	dst = binary.BigEndian.AppendUint16(dst, uint16(r.Err))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Records)))
	for _, rec := range r.Records {
		dst = rec.encode(dst)
	}
	return dst
}

// FetchResponse parses a response body produced by Encode, with scratch
// reuse; see Decoder for the ownership contract.
func (d *Decoder) FetchResponse(b []byte) (FetchResponse, error) {
	var r FetchResponse
	if len(b) < 4 {
		return r, fmt.Errorf("fetch-response correlation id: %w", ErrShortBuffer)
	}
	r.CorrelationID = binary.BigEndian.Uint32(b)
	b = b[4:]
	topic, b, err := d.decodeString(b)
	if err != nil {
		return r, fmt.Errorf("fetch-response topic: %w", err)
	}
	r.Topic = topic
	if len(b) < 34 {
		return r, fmt.Errorf("fetch-response header: %w", ErrShortBuffer)
	}
	r.Partition = int32(binary.BigEndian.Uint32(b))
	r.HighWatermark = int64(binary.BigEndian.Uint64(b[4:]))
	r.NextOffset = int64(binary.BigEndian.Uint64(b[12:]))
	r.LastStable = int64(binary.BigEndian.Uint64(b[20:]))
	r.Err = ErrorCode(binary.BigEndian.Uint16(b[28:]))
	count := int(binary.BigEndian.Uint32(b[30:]))
	b = b[34:]
	recs := d.recordScratch(count, b)
	for i := 0; i < count; i++ {
		rec, rest, err := decodeRecord(b)
		if err != nil {
			return r, fmt.Errorf("fetch-response record %d: %w", i, err)
		}
		recs = append(recs, rec)
		b = rest
	}
	if len(b) != 0 {
		return r, fmt.Errorf("fetch-response trailing %d bytes: %w", len(b), ErrBadFrame)
	}
	r.Records = recs
	d.keepRecordScratch(recs)
	return r, nil
}

// recordScratch returns an empty record slice to decode count records
// from b into: the reused backing array for a real decoder, a fresh
// allocation for a nil one. The allocation is sized by what b can hold,
// not by what the count field claims, so a header lying about its count
// costs nothing before the decode fails with ErrShortBuffer.
func (d *Decoder) recordScratch(count int, b []byte) []Record {
	if d != nil && d.records != nil {
		return d.records[:0]
	}
	return make([]Record, 0, min(count, len(b)/minRecordSize))
}

// keepRecordScratch retains a (possibly grown) record slice for reuse.
func (d *Decoder) keepRecordScratch(recs []Record) {
	if d != nil {
		d.records = recs
	}
}
