package broker

import (
	"math/rand/v2"
	"testing"

	"kafkarel/internal/des"
	"kafkarel/internal/storage"
	"kafkarel/internal/wire"
)

// copyOutFetch is the reference HandleFetch is checked against: a
// record-by-record walk (copy entries until the first filtered offset),
// computed from the partition state and a flat copy of the log (all),
// without touching Fetch's cut logic or the log's segment walk.
func copyOutFetch(p *part, all []storage.Entry, req wire.FetchRequest) wire.FetchResponse {
	resp := wire.FetchResponse{
		CorrelationID: req.CorrelationID, Topic: req.Topic, Partition: req.Partition,
		NextOffset: req.Offset, HighWatermark: p.log.End(), LastStable: p.txn.lso(p.log.End()),
	}
	if req.Offset < 0 || req.Offset > p.log.End() {
		resp.Err = wire.ErrRequestTimedOut
		return resp
	}
	limit := p.log.End()
	if req.Isolation == wire.ReadCommitted && resp.LastStable < limit {
		limit = resp.LastStable
	}
	pos := req.Offset
	for pos < limit && p.txn.filtered(pos, req.Isolation) {
		pos++
	}
	if pos > req.Offset {
		resp.NextOffset = pos
		return resp
	}
	for off := pos; off < limit && len(resp.Records) < int(req.MaxRecords); off++ {
		if p.txn.filtered(off, req.Isolation) {
			break
		}
		resp.Records = append(resp.Records, all[off].Record)
	}
	next := pos + int64(len(resp.Records))
	for next < limit && p.txn.filtered(next, req.Isolation) {
		next++
	}
	resp.NextOffset = next
	return resp
}

// randomTxnPartition fills a partition with plain batches, transactional
// batches from three producers, and commit/abort markers, leaving some
// transactions open so the last stable offset sits below the log end.
// The segment limit of 100 gives capacities 64, 64, 100, 100, ...
func randomTxnPartition(t *testing.T, rng *rand.Rand) (*Broker, *part) {
	t.Helper()
	b, err := New(1, des.New(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.CreatePartition("t", 0)
	b.resolve("t", 0).log = *storage.NewLog(100)
	key := uint64(100)
	seq := map[uint64]uint64{}
	open := map[uint64]bool{}
	appendBatch := func(batch wire.RecordBatch) {
		if _, _, code := b.Append("t", 0, batch, batch.Idempotent); code != wire.ErrNone {
			t.Fatalf("append %+v: %s", batch, code)
		}
	}
	for n := 300 + rng.IntN(300); b.Log("t", 0).End() < int64(n); {
		pid := uint64(1 + rng.IntN(3))
		switch r := rng.IntN(10); {
		case r < 3: // plain records
			batch := wire.RecordBatch{ProducerID: 9, BaseSequence: seq[9]}
			for i := rng.IntN(12) + 1; i > 0; i-- {
				key++
				batch.Records = append(batch.Records, wire.Record{Key: key, Payload: []byte{byte(key)}})
			}
			seq[9]++
			appendBatch(batch)
		case r < 6: // transactional records
			var keys []uint64
			for i := rng.IntN(6) + 1; i > 0; i-- {
				key++
				keys = append(keys, key)
			}
			appendBatch(txnBatch(pid, 0, seq[pid], keys...))
			seq[pid]++
			open[pid] = true
		default: // decide an open transaction
			if open[pid] {
				appendBatch(marker(pid, 0, rng.IntN(2) == 0))
				open[pid] = false
			}
		}
	}
	return b, b.resolve("t", 0)
}

// segmentOf is the segment holding offset o in randomTxnPartition's log:
// capacities 64, 64, then 100.
func segmentOf(o int64) int64 {
	if o < 128 {
		return o / 64
	}
	return 2 + (o-128)/100
}

// HandleFetch copies its answer out of the log's segments; the response
// must be record for record the model's — on logs with control markers
// and aborted ranges, at both isolation levels, for fetches inside one
// segment, across segment boundaries, at the log end and past it.
func TestFetchMatchesCopyOut(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 5))
		b, p := randomTxnPartition(t, rng)
		end := p.log.End()
		// The first two segments hold 64 records each: beyond 128 there
		// are at least three.
		if len(p.txn.control) == 0 || len(p.txn.aborted) == 0 || end <= 128 {
			t.Fatalf("seed %d: log too plain to test (control %d, aborted %d, end %d)",
				seed, len(p.txn.control), len(p.txn.aborted), end)
		}
		var all []storage.Entry
		p.log.Scan(func(e storage.Entry) bool { all = append(all, e); return true })
		offsets := []int64{end, end + 1, end + 50, -1}
		for off := int64(0); off < end; off++ {
			offsets = append(offsets, off)
		}
		inside, across := 0, 0
		for _, off := range offsets {
			for _, iso := range []wire.IsolationLevel{wire.ReadUncommitted, wire.ReadCommitted} {
				for _, max := range []int32{1, 7, int32(rng.IntN(150) + 1), 4096} {
					req := wire.FetchRequest{CorrelationID: 7, Topic: "t", Offset: off, MaxRecords: max, Isolation: iso}
					want := copyOutFetch(p, all, req)
					calls := 0
					b.HandleFetch(req, func(got wire.FetchResponse) {
						calls++
						if len(got.Records) != len(want.Records) {
							t.Fatalf("seed %d off %d iso %d max %d: %d records, want %d", seed, off, iso, max, len(got.Records), len(want.Records))
						}
						for i := range got.Records {
							g, w := got.Records[i], want.Records[i]
							if g.Key != w.Key || g.Timestamp != w.Timestamp || string(g.Payload) != string(w.Payload) {
								t.Fatalf("seed %d off %d iso %d max %d: record %d = %+v, want %+v", seed, off, iso, max, i, g, w)
							}
						}
						if n := int64(len(got.Records)); n > 0 && segmentOf(off) != segmentOf(off+n-1) {
							across++
						} else if n > 0 {
							inside++
						}
						got.Records, want.Records = nil, nil
						if got.CorrelationID != want.CorrelationID || got.Topic != want.Topic || got.Partition != want.Partition ||
							got.Err != want.Err || got.NextOffset != want.NextOffset ||
							got.HighWatermark != want.HighWatermark || got.LastStable != want.LastStable {
							t.Fatalf("seed %d off %d iso %d max %d: response %+v, want %+v", seed, off, iso, max, got, want)
						}
					})
					if calls != 1 {
						t.Fatalf("seed %d off %d: done called %d times", seed, off, calls)
					}
				}
			}
		}
		if inside == 0 || across == 0 {
			t.Errorf("seed %d: %d answers inside a segment, %d across a boundary; want both", seed, inside, across)
		}
	}
}

// firstFiltered is the one-search form of scanning filtered offset by
// offset; the two must agree on every window.
func TestFirstFilteredMatchesPerOffsetScan(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewPCG(seed, 6))
		_, p := randomTxnPartition(t, rng)
		end := p.log.End()
		for from := int64(0); from <= end; from++ {
			for _, to := range []int64{from, from + 1, from + int64(rng.IntN(40)), end, end + 10} {
				if to < from {
					continue
				}
				for _, iso := range []wire.IsolationLevel{wire.ReadUncommitted, wire.ReadCommitted} {
					want := from
					for want < to && !p.txn.filtered(want, iso) {
						want++
					}
					if got := p.txn.firstFiltered(from, to, iso); got != want {
						t.Fatalf("seed %d: firstFiltered(%d, %d, %d) = %d, want %d", seed, from, to, iso, got, want)
					}
				}
			}
		}
	}
}
