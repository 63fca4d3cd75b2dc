package broker

import (
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

func txnBatch(pid uint64, epoch uint32, seq uint64, keys ...uint64) wire.RecordBatch {
	b := wire.RecordBatch{
		ProducerID: pid, ProducerEpoch: epoch, BaseSequence: seq,
		Idempotent: true, Transactional: true,
	}
	for _, k := range keys {
		b.Records = append(b.Records, wire.Record{Key: k, Payload: []byte("xx")})
	}
	return b
}

func marker(pid uint64, epoch uint32, commit bool) wire.RecordBatch {
	return wire.RecordBatch{
		ProducerID: pid, ProducerEpoch: epoch, Control: true,
		Records: []wire.Record{wire.ControlRecord(commit, 0)},
	}
}

// fetchIso drains the partition from offset at the given isolation,
// following NextOffset across filtered runs (a single fetch returns
// only one contiguous visible run).
func fetchIso(t *testing.T, b *Broker, offset int64, iso wire.IsolationLevel) wire.FetchResponse {
	t.Helper()
	var all wire.FetchResponse
	for {
		var resp wire.FetchResponse
		got := false
		b.HandleFetch(wire.FetchRequest{
			Topic: "t", Partition: 0, Offset: offset, MaxRecords: 100, Isolation: iso,
		}, func(r wire.FetchResponse) { resp = r; got = true })
		if !got {
			t.Fatal("no fetch response")
		}
		if resp.Err != wire.ErrNone {
			t.Fatalf("fetch at %d: %s", offset, resp.Err)
		}
		all.Records = append(all.Records, resp.Records...)
		all.HighWatermark, all.LastStable = resp.HighWatermark, resp.LastStable
		if resp.NextOffset <= offset {
			return all
		}
		offset = resp.NextOffset
	}
}

func TestTxnStaleEpochFencedBeforeAppend(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	if _, _, code := b.Append("t", 0, txnBatch(9, 2, 1, 1), true); code != wire.ErrNone {
		t.Fatalf("epoch-2 append: %s", code)
	}
	if _, _, code := b.Append("t", 0, txnBatch(9, 1, 2, 2), true); code != wire.ErrProducerFenced {
		t.Fatalf("stale-epoch append = %s, want PRODUCER_FENCED", code)
	}
	// Control markers from the stale epoch are fenced too.
	if _, _, code := b.Append("t", 0, marker(9, 1, true), false); code != wire.ErrProducerFenced {
		t.Fatalf("stale-epoch marker = %s, want PRODUCER_FENCED", code)
	}
	if b.Log("t", 0).End() != 1 {
		t.Fatalf("log end = %d after fenced appends, want 1", b.Log("t", 0).End())
	}
}

func TestTxnEpochBumpResetsSequenceSpace(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	// Old incarnation appends sequence 1, then dies (its txn dangles).
	if _, _, code := b.Append("t", 0, txnBatch(9, 0, 1, 1), true); code != wire.ErrNone {
		t.Fatalf("epoch-0 append: %s", code)
	}
	// The new incarnation restarts its sequences at 1 under epoch 1: the
	// batch must APPEND, not dedupe against the dead epoch's batch.
	off, dup, code := b.Append("t", 0, txnBatch(9, 1, 1, 2), true)
	if code != wire.ErrNone || dup {
		t.Fatalf("epoch-1 seq-1 append = (dup=%v, %s), want a fresh append", dup, code)
	}
	if off != 1 || b.Log("t", 0).End() != 2 {
		t.Fatalf("offset %d, log end %d — new epoch's batch was dropped", off, b.Log("t", 0).End())
	}
	// Within the new epoch, dedupe still works.
	off2, dup2, code2 := b.Append("t", 0, txnBatch(9, 1, 1, 2), true)
	if code2 != wire.ErrNone || !dup2 || off2 != 1 {
		t.Fatalf("same-epoch retry = (off=%d, dup=%v, %s), want dedupe at 1", off2, dup2, code2)
	}
}

func TestTxnLastStableAndIsolationFiltering(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	b.Append("t", 0, txnBatch(9, 0, 1, 1, 2), true)
	part, _ := b.Partition("t", 0)
	if lso := part.LastStable(); lso != 0 {
		t.Fatalf("LSO with open txn = %d, want 0", lso)
	}
	// read_committed is held at the LSO; read_uncommitted sees the data.
	if f := fetchIso(t, b, 0, wire.ReadCommitted); len(f.Records) != 0 || f.LastStable != 0 {
		t.Fatalf("read_committed before commit: %d records, LSO %d", len(f.Records), f.LastStable)
	}
	if f := fetchIso(t, b, 0, wire.ReadUncommitted); len(f.Records) != 2 {
		t.Fatalf("read_uncommitted = %d records, want 2", len(f.Records))
	}
	// Commit marker closes the range and advances the LSO past it.
	b.Append("t", 0, marker(9, 0, true), false)
	if lso := part.LastStable(); lso != 3 {
		t.Fatalf("LSO after commit = %d, want 3", lso)
	}
	f := fetchIso(t, b, 0, wire.ReadCommitted)
	if len(f.Records) != 2 || f.Records[0].Key != 1 || f.Records[1].Key != 2 {
		t.Fatalf("read_committed after commit = %+v, want keys 1,2", f.Records)
	}
	// The control record itself is hidden at BOTH isolations.
	if f := fetchIso(t, b, 0, wire.ReadUncommitted); len(f.Records) != 2 {
		t.Fatalf("control record leaked at read_uncommitted: %d records", len(f.Records))
	}
}

func TestTxnAbortedRangeSkippedAtReadCommitted(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	// txn A aborts, txn B commits, interleaved on the same partition.
	b.Append("t", 0, txnBatch(9, 0, 1, 1, 2), true)
	b.Append("t", 0, txnBatch(7, 0, 1, 3), true)
	b.Append("t", 0, marker(9, 0, false), false) // abort A
	b.Append("t", 0, marker(7, 0, true), false)  // commit B
	f := fetchIso(t, b, 0, wire.ReadCommitted)
	if len(f.Records) != 1 || f.Records[0].Key != 3 {
		t.Fatalf("read_committed = %+v, want only key 3", f.Records)
	}
	// read_uncommitted sees the aborted residue as configured.
	f = fetchIso(t, b, 0, wire.ReadUncommitted)
	if len(f.Records) != 3 {
		t.Fatalf("read_uncommitted = %d records, want 3", len(f.Records))
	}
	// A replayed abort marker is a no-op on the transaction view.
	b.Append("t", 0, marker(9, 0, false), false)
	if got := fetchIso(t, b, 0, wire.ReadCommitted); len(got.Records) != 1 {
		t.Fatalf("marker replay changed the committed view: %d records", len(got.Records))
	}
}

func TestTxnStateSurvivesUncleanCrashViaCatchUp(t *testing.T) {
	sim := des.New()
	cfg := DefaultConfig()
	// A long flush interval keeps the open-transaction state out of the
	// durable checkpoint unless the catch-up copies it.
	cfg.FlushInterval = 10 * time.Second
	bs, err := NewSet(2, sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, leader := bs[0], bs[1]
	for _, br := range bs {
		br.CreatePartition("t", 0)
		br.Append("t", 0, txnBatch(9, 3, 1, 1, 2), true)
		br.Append("t", 0, marker(9, 3, true), false)
	}

	b.CrashUnclean()
	b.Start()
	if _, _, code := b.Append("t", 0, txnBatch(9, 2, 5, 9), true); code == wire.ErrProducerFenced {
		t.Fatal("the crash kept an epoch it never flushed")
	}
	// Catch-up from the leader (cluster.RecoverBroker path) restores both
	// views: fencing and the committed ranges must hold afterwards.
	if err := b.CatchUpFrom(leader, "t", 0); err != nil {
		t.Fatal(err)
	}
	if _, _, code := b.Append("t", 0, txnBatch(9, 2, 5, 9), true); code != wire.ErrProducerFenced {
		t.Fatalf("stale epoch after catch-up = %s, want PRODUCER_FENCED", code)
	}
	if _, dup, code := b.Append("t", 0, txnBatch(9, 3, 1, 1, 2), true); code != wire.ErrNone || !dup {
		t.Fatalf("retry after catch-up = (dup=%v, %s), want dedupe", dup, code)
	}
}
