package coordinator

import (
	"encoding/binary"
	"fmt"

	"kafkarel/internal/wire"
)

// The transaction-state log stores one full transaction snapshot per
// record, keyed for compaction by transactional.id — the analogue of
// Kafka's __transaction_state topic. Every state transition the
// coordinator must survive (identity grants, partition registration,
// the commit/abort decision, completion) is appended before it takes
// externally visible effect, so scanning the log and keeping the last
// record per transactional.id always reproduces the coordinator's
// durable intent: an in-doubt PrepareCommit/PrepareAbort found there is
// re-driven to completion, never rolled back.

// txnRecord is the decoded payload of one transaction-state record.
type txnRecord struct {
	Tid        string
	Pid        uint64
	Epoch      uint32
	State      int8
	Partitions []wire.TxnPartition
	Group      string
	Offsets    []wire.TxnOffset
}

// appendTxnRecord serialises a transaction snapshot:
//
//	[u16 tid len][tid][u64 pid][u32 epoch][u8 state]
//	[u16 n] { [u16 topic len][topic][u32 partition] }*n
//	[u16 group len][group]
//	[u16 m] { [u16 topic len][topic][u32 partition][u64 offset] }*m
func appendTxnStateRecord(dst []byte, r txnRecord) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Tid)))
	dst = append(dst, r.Tid...)
	dst = binary.BigEndian.AppendUint64(dst, r.Pid)
	dst = binary.BigEndian.AppendUint32(dst, r.Epoch)
	dst = append(dst, byte(r.State))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Partitions)))
	for _, p := range r.Partitions {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Topic)))
		dst = append(dst, p.Topic...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.Partition))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Group)))
	dst = append(dst, r.Group...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Offsets)))
	for _, o := range r.Offsets {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(o.Topic)))
		dst = append(dst, o.Topic...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(o.Partition))
		dst = binary.BigEndian.AppendUint64(dst, uint64(o.Offset))
	}
	return dst
}

// decodeTxnStateRecord parses a payload written by appendTxnStateRecord.
func decodeTxnStateRecord(b []byte) (txnRecord, error) {
	var r txnRecord
	var err error
	if r.Tid, b, err = readCommitString(b, ""); err != nil {
		return r, fmt.Errorf("txn record tid: %w", err)
	}
	if len(b) < 8+4+1+2 {
		return r, fmt.Errorf("txn record header: %w", wire.ErrShortBuffer)
	}
	r.Pid = binary.BigEndian.Uint64(b)
	r.Epoch = binary.BigEndian.Uint32(b[8:])
	r.State = int8(b[12])
	n := int(binary.BigEndian.Uint16(b[13:]))
	b = b[15:]
	for i := 0; i < n; i++ {
		var topic string
		if topic, b, err = readCommitString(b, ""); err != nil {
			return r, fmt.Errorf("txn record partition topic: %w", err)
		}
		if len(b) < 4 {
			return r, fmt.Errorf("txn record partition: %w", wire.ErrShortBuffer)
		}
		r.Partitions = append(r.Partitions, wire.TxnPartition{
			Topic: topic, Partition: int32(binary.BigEndian.Uint32(b)),
		})
		b = b[4:]
	}
	if r.Group, b, err = readCommitString(b, ""); err != nil {
		return r, fmt.Errorf("txn record group: %w", err)
	}
	if len(b) < 2 {
		return r, fmt.Errorf("txn record offsets: %w", wire.ErrShortBuffer)
	}
	m := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < m; i++ {
		var topic string
		if topic, b, err = readCommitString(b, ""); err != nil {
			return r, fmt.Errorf("txn record offset topic: %w", err)
		}
		if len(b) < 12 {
			return r, fmt.Errorf("txn record offset: %w", wire.ErrShortBuffer)
		}
		r.Offsets = append(r.Offsets, wire.TxnOffset{
			Topic:     topic,
			Partition: int32(binary.BigEndian.Uint32(b)),
			Offset:    int64(binary.BigEndian.Uint64(b[4:])),
		})
		b = b[12:]
	}
	if len(b) != 0 {
		return r, fmt.Errorf("txn record tail: %w", wire.ErrBadFrame)
	}
	return r, nil
}

// txnCompactionKey hashes a transactional.id into the record key, the
// stand-in for Kafka's transaction-state message key.
func txnCompactionKey(tid string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tid); i++ {
		h = (h ^ uint64(tid[i])) * prime64
	}
	return h
}
