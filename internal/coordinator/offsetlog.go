package coordinator

import (
	"encoding/binary"
	"fmt"

	"kafkarel/internal/wire"
)

// The offsets log stores one commit per record, keyed for compaction by
// (group, topic, partition) — the analogue of Kafka's __consumer_offsets
// message key. The log itself is an ordinary replicated cluster topic;
// compaction is modeled at materialization time: scanning the log and
// keeping the last record per key yields exactly the compacted view, and
// the coordinator maintains that view incrementally as commits are
// acknowledged.

// commitRecord is the decoded payload of one offsets-log record.
type commitRecord struct {
	Group      string
	Topic      string
	Partition  int32
	Offset     int64
	Generation int32
}

// appendCommitRecord serialises a commit record payload:
//
//	[u16 group len][group][u16 topic len][topic]
//	[u32 partition][u64 offset][u32 generation]
func appendCommitRecord(dst []byte, r commitRecord) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Group)))
	dst = append(dst, r.Group...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Topic)))
	dst = append(dst, r.Topic...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Partition))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Offset))
	return binary.BigEndian.AppendUint32(dst, uint32(r.Generation))
}

// decodeCommitRecord parses a payload produced by appendCommitRecord.
// The group and topic strings are interned against the expected values
// when they match, so a recovery scan over one group's log allocates no
// strings.
func decodeCommitRecord(b []byte, internGroup, internTopic string) (commitRecord, error) {
	var r commitRecord
	var err error
	if r.Group, b, err = readCommitString(b, internGroup); err != nil {
		return r, fmt.Errorf("commit record group: %w", err)
	}
	if r.Topic, b, err = readCommitString(b, internTopic); err != nil {
		return r, fmt.Errorf("commit record topic: %w", err)
	}
	if len(b) != 16 {
		return r, fmt.Errorf("commit record tail: %w", wire.ErrBadFrame)
	}
	r.Partition = int32(binary.BigEndian.Uint32(b))
	r.Offset = int64(binary.BigEndian.Uint64(b[4:]))
	r.Generation = int32(binary.BigEndian.Uint32(b[12:]))
	return r, nil
}

func readCommitString(b []byte, intern string) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, wire.ErrShortBuffer
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, wire.ErrShortBuffer
	}
	if len(intern) == n && string(b[:n]) == intern {
		return intern, b[n:], nil
	}
	return string(b[:n]), b[n:], nil
}

// compactionKey hashes (group, topic, partition) with FNV-1a into the
// wire.Record key field — the stand-in for Kafka's record key, which
// log compaction (and our last-write-wins materialization) dedups on.
// Inlined like producer.fnv1a64 so the commit hot path allocates no
// hash state.
func compactionKey(group, topic string, partition int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(group); i++ {
		h = (h ^ uint64(group[i])) * prime64
	}
	h = (h ^ 0) * prime64 // separator
	for i := 0; i < len(topic); i++ {
		h = (h ^ uint64(topic[i])) * prime64
	}
	for shift := 0; shift < 32; shift += 8 {
		h = (h ^ uint64(uint32(partition)>>shift&0xFF)) * prime64
	}
	return h
}
