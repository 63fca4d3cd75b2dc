package broker

import (
	"math/rand/v2"
	"testing"

	"kafkarel/internal/des"
	"kafkarel/internal/storage"
	"kafkarel/internal/wire"
)

// copyOutFetch is the reference HandleFetch is checked against: the
// record-by-record algorithm the view replaced (read entries out of the
// log, copy them until the first filtered offset), computed from the
// partition state and a flat copy of the log (all), without touching the
// view path's run or cut logic.
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
	b.resolve("t", 0).log = storage.NewLog(100)
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

// HandleFetch answers from views of the log; the response must be record
// for record what copying out produces — on logs with control markers and
// aborted ranges, at both isolation levels, for fetches inside one
// segment, across segment boundaries, at the log end and past it.
func TestFetchViewMatchesCopyOut(t *testing.T) {
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
		views, stitched := 0, 0
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
						if len(got.Records) > 0 {
							// A single-segment answer is the log's own slots.
							if run, err := p.log.View(off, 1); err == nil && len(run) == 1 && &run[0] == &got.Records[0] {
								views++
							} else {
								stitched++
							}
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
					want = copyOutFetch(p, all, req)
					checkFetchRuns(t, b, p, req, want)
				}
			}
		}
		if views == 0 || stitched == 0 {
			t.Errorf("seed %d: %d view answers, %d stitched answers; want both", seed, views, stitched)
		}
	}
}

// checkFetchRuns holds FetchRuns to Fetch's answer (want) handed out in
// pieces: one counted request, every piece the log's own slots, the
// pieces end to end making want's records, each NextOffset the end of
// the records so far, and the last call carrying want's header.
func checkFetchRuns(t *testing.T, b *Broker, p *part, req wire.FetchRequest, want wire.FetchResponse) {
	t.Helper()
	h, _ := b.Partition(req.Topic, req.Partition)
	counted := b.Stats().FetchRequests
	n := 0
	var last wire.FetchResponse
	h.FetchRuns(req, func(got wire.FetchResponse) {
		last = got
		if len(got.Records) == 0 {
			return
		}
		if run, err := p.log.View(req.Offset+int64(n), 1); err != nil || &run[0] != &got.Records[0] {
			t.Fatalf("off %d iso %d max %d: run at +%d is not a view of the log", req.Offset, req.Isolation, req.MaxRecords, n)
		}
		for i, g := range got.Records {
			if n+i >= len(want.Records) || g.Key != want.Records[n+i].Key {
				t.Fatalf("off %d iso %d max %d: record %d = %+v, not Fetch's", req.Offset, req.Isolation, req.MaxRecords, n+i, g)
			}
		}
		n += len(got.Records)
		if n < len(want.Records) && got.NextOffset != req.Offset+int64(n) {
			t.Fatalf("off %d iso %d max %d: NextOffset %d after %d records", req.Offset, req.Isolation, req.MaxRecords, got.NextOffset, n)
		}
	})
	if got := b.Stats().FetchRequests - counted; got != 1 {
		t.Fatalf("off %d: FetchRuns counted %d requests", req.Offset, got)
	}
	if n != len(want.Records) {
		t.Fatalf("off %d iso %d max %d: %d records in all, want %d", req.Offset, req.Isolation, req.MaxRecords, n, len(want.Records))
	}
	last.Records, want.Records = nil, nil
	if last.CorrelationID != want.CorrelationID || last.Topic != want.Topic || last.Partition != want.Partition ||
		last.Err != want.Err || last.NextOffset != want.NextOffset ||
		last.HighWatermark != want.HighWatermark || last.LastStable != want.LastStable {
		t.Fatalf("off %d iso %d max %d: last response %+v, want %+v", req.Offset, req.Isolation, req.MaxRecords, last, want)
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
