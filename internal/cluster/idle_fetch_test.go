package cluster

import (
	"math/rand/v2"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// noOpProbe is one question put to the idle-fetch predicate.
type noOpProbe struct {
	pos, hwm int64
	iso      wire.IsolationLevel
	max      int32
}

// fetchIsTheNoOp issues the real fetch and reports whether its answer is
// exactly the one FetchIsNoOp promises: answered, no error, no records,
// NextOffset == pos, HighWatermark == hwm.
func fetchIsTheNoOp(h Partition, q noOpProbe) (noOp bool, got wire.FetchResponse, answered bool) {
	h.Fetch(wire.FetchRequest{
		Topic: "t", Offset: q.pos, MaxRecords: q.max, Isolation: q.iso,
	}, func(fr wire.FetchResponse) {
		answered = true
		got = fr
		got.Records = nil // a view, dead after the callback; the count is all we keep
		noOp = fr.Err == wire.ErrNone && len(fr.Records) == 0 &&
			fr.NextOffset == q.pos && fr.HighWatermark == q.hwm
	})
	return noOp, got, answered
}

// Property: over random histories of an RF-3 partition — plain and
// transactional appends, commit and abort markers, clean stops and unclean
// crashes under a real flush interval (both behind the cluster's back and
// through its failover), recoveries with catch-up — the predicate that lets
// a consumer skip a fetch agrees with the fetch itself at every step and
// for every reader state tried, in both directions:
//
//   - it never lies: true ⇒ the real response is exactly {ErrNone, no
//     records, NextOffset = pos, HighWatermark = hwm};
//   - it never rots: false ⇒ the real fetch would have told the reader
//     something (or nothing at all, the leader being down) — in particular
//     a reader at pos == hwm == End() of a live leader is always elided, so
//     a refactor cannot quietly switch the elision off.
func TestPropertyFetchIsNoOpAgreesWithFetch(t *testing.T) {
	var atEnd, parked, leaderDown, staleHigh, staleLow int
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 16))
		sim := des.New()
		cfg := DefaultConfig()
		cfg.Broker.FlushInterval = 4 * time.Millisecond
		c, err := New(sim, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CreateTopic("t", 1, 3); err != nil {
			t.Fatal(err)
		}
		h, ok := c.Partition("t", 0)
		if !ok {
			t.Fatal("no handle for t/0")
		}
		advance := func(d time.Duration) {
			if err := sim.RunUntil(sim.Now() + d); err != nil {
				t.Fatal(err)
			}
		}
		var key uint64
		records := func(n int) []wire.Record {
			recs := make([]wire.Record, n)
			for i := range recs {
				key++
				recs[i] = wire.Record{Key: key}
			}
			return recs
		}
		var seq [2]uint64 // per transactional producer
		produce := func(b wire.RecordBatch) {
			c.HandleProduce(wire.ProduceRequest{Topic: "t", Acks: wire.AcksLeader, Batch: b}, nil)
			advance(time.Duration(rng.IntN(1500)) * time.Microsecond)
		}

		for op := 0; op < 150; op++ {
			id := int32(rng.IntN(3))
			switch rng.IntN(14) {
			case 0, 1, 2:
				produce(wire.RecordBatch{Records: records(1 + rng.IntN(3))})
			case 3, 4:
				pid := rng.IntN(2)
				seq[pid]++
				produce(wire.RecordBatch{
					ProducerID: uint64(pid + 1), BaseSequence: seq[pid],
					Idempotent: true, Transactional: true,
					Records: records(1 + rng.IntN(3)),
				})
			case 5, 6:
				produce(wire.RecordBatch{
					ProducerID: uint64(rng.IntN(2) + 1), Control: true,
					Records: []wire.Record{wire.ControlRecord(rng.IntN(2) == 0, 0)},
				})
			case 7: // behind the cluster's back: the leader stays listed while down
				c.Broker(id).Stop()
			case 8:
				c.Broker(id).CrashUnclean()
			case 9:
				c.Broker(id).Start()
			case 10:
				_ = c.FailBroker(id)
			case 11:
				_ = c.CrashBrokerUnclean(id)
			case 12:
				_ = c.RecoverBroker(id)
			case 13:
				advance(time.Duration(rng.IntN(6)) * time.Millisecond)
			}

			leader := c.Leader("t", 0)
			live := leader != nil && leader.Up()
			var end, lso int64
			if leader != nil {
				part, _ := leader.Partition("t", 0)
				end, lso = part.End(), part.LastStable()
			}
			probes := []noOpProbe{
				// The common case, spelled out so it can never go missing.
				{pos: end, hwm: end, iso: wire.ReadUncommitted, max: 512},
				{pos: end, hwm: end, iso: wire.ReadCommitted, max: 512},
				{pos: lso, hwm: end, iso: wire.ReadCommitted, max: 512},
			}
			for i := 0; i < 12; i++ {
				q := noOpProbe{
					pos: end - 3 + int64(rng.IntN(6)),
					hwm: end - 2 + int64(rng.IntN(5)),
					iso: wire.IsolationLevel(rng.IntN(2)),
					max: int32(1 + rng.IntN(8)),
				}
				if rng.IntN(3) == 0 {
					q.pos = lso - 1 + int64(rng.IntN(3))
				}
				if rng.IntN(2) == 0 {
					q.hwm = end
				}
				probes = append(probes, q)
			}
			for i, q := range probes {
				if _, ok := h.Leader(); ok != live {
					t.Fatalf("seed %d op %d: Leader() ok=%v, want %v", seed, op, ok, live)
				}
				// The leading replica is asked even while Leader() withholds it
				// for being down: the broker's predicate must stand on its own.
				pred := false
				if id := h.pm.leader; id >= 0 {
					pred = h.pm.hosted[id].FetchIsNoOp(q.pos, q.hwm, q.iso)
				}
				noOp, got, answered := fetchIsTheNoOp(h, q)
				if pred != noOp {
					t.Fatalf("seed %d op %d: FetchIsNoOp(pos=%d, hwm=%d, iso=%d) = %v with end=%d lso=%d live=%v, but the fetch answered=%v err=%s next=%d hwm=%d",
						seed, op, q.pos, q.hwm, q.iso, pred, end, lso, live, answered, got.Err, got.NextOffset, got.HighWatermark)
				}
				if i < 2 && pred != live {
					t.Fatalf("seed %d op %d: reader at pos == hwm == End() = %d of a live=%v leader: FetchIsNoOp = %v", seed, op, end, live, pred)
				}
				switch {
				case pred && q.pos == end:
					atEnd++
				case pred:
					parked++
				case !live:
					leaderDown++
				case q.hwm > end:
					staleHigh++
				case q.hwm < end:
					staleLow++
				}
			}
		}
	}
	// The histories must actually reach the states the predicate exists for.
	for name, n := range map[string]int{
		"elided at the log end":                        atEnd,
		"elided parked at the LSO below the log end":   parked,
		"refused: leader down or partition leaderless": leaderDown,
		"refused: hwm above the log end (truncation)":  staleHigh,
		"refused: hwm below the log end (append)":      staleLow,
	} {
		if n == 0 {
			t.Errorf("no probe was %s: the histories no longer cover it", name)
		}
	}
}

// A handle outlives every topology change: it is resolved once and must
// follow the leader through failover, recovery and a leaderless spell.
func TestPartitionHandleFollowsLeader(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	h, ok := c.Partition("t", 0)
	if !ok {
		t.Fatal("no handle for t/0")
	}
	if _, ok := c.Partition("t", 1); ok {
		t.Error("handle for a partition that does not exist")
	}
	if _, ok := c.Partition("nope", 0); ok {
		t.Error("handle for a topic that does not exist")
	}
	c.HandleProduce(produceReq(1, wire.AcksAll, 1, 2, 3), nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 3; id++ {
		lp, ok := h.Leader()
		if !ok || lp.End() != 3 || lp.LastStable() != 3 {
			t.Fatalf("before failing broker %d: ok=%v end=%d", id, ok, lp.End())
		}
		if err := c.FailBroker(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := h.Leader(); ok {
		t.Fatal("leader reported with every broker down")
	}
	answered := false
	h.Fetch(wire.FetchRequest{Topic: "t"}, func(fr wire.FetchResponse) {
		answered = true
		if fr.Err != wire.ErrUnknownTopicOrPartition {
			t.Errorf("leaderless fetch: err = %s", fr.Err)
		}
	})
	if !answered {
		t.Error("leaderless fetch went unanswered")
	}
	if err := c.RecoverBroker(2); err != nil {
		t.Fatal(err)
	}
	if lp, ok := h.Leader(); !ok || lp.End() != 3 || c.Leader("t", 0).ID() != 2 {
		t.Fatalf("after recovery: ok=%v end=%d", ok, lp.End())
	}
}
