package cluster

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

func newCluster(t *testing.T, sim *des.Simulator) *Cluster {
	t.Helper()
	c, err := New(sim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	return c
}

func produceReq(corr uint32, acks wire.RequiredAcks, keys ...uint64) wire.ProduceRequest {
	b := wire.RecordBatch{}
	for _, k := range keys {
		b.Records = append(b.Records, wire.Record{Key: k, Payload: []byte("p")})
	}
	return wire.ProduceRequest{CorrelationID: corr, Topic: "t", Partition: 0, Acks: acks, Batch: b}
}

func TestCreateTopicPlacement(t *testing.T) {
	sim := des.New()
	c, err := New(sim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("multi", 6, 2); err != nil {
		t.Fatal(err)
	}
	if n, ok := c.PartitionCount("multi"); !ok || n != 6 {
		t.Fatalf("PartitionCount = %d, %v; want 6, true", n, ok)
	}
	if _, ok := c.PartitionCount("absent"); ok {
		t.Error("PartitionCount found an absent topic")
	}
	if _, ok := c.Partition("multi", 6); ok {
		t.Error("partition 6 of a 6-partition topic resolved")
	}
	leaders := map[int32]int{}
	for p := int32(0); p < 6; p++ {
		h, ok := c.Partition("multi", p)
		if !ok {
			t.Fatalf("partition %d did not resolve", p)
		}
		leader := c.Leader("multi", p)
		leaders[leader.ID()]++
		// The handle routes to the leader's replica, which is the first
		// of the partition's two consecutive brokers.
		lp, up := h.Leader()
		if want, _ := leader.Partition("multi", p); !up || lp != want {
			t.Errorf("partition %d: handle leader %+v up=%v, want broker %d's replica", p, lp, up, leader.ID())
		}
		var hosts []int32
		for id := int32(0); id < int32(c.Brokers()); id++ {
			if _, ok := c.Broker(id).Partition("multi", p); ok {
				hosts = append(hosts, id)
			}
		}
		if len(hosts) != 2 || !slices.Contains(hosts, (leader.ID()+1)%3) {
			t.Errorf("partition %d led by %d is hosted on %v, want it and the next broker", p, leader.ID(), hosts)
		}
	}
	// Round-robin across 3 brokers → each leads 2 of 6 partitions.
	for id, n := range leaders {
		if n != 2 {
			t.Errorf("broker %d leads %d partitions, want 2", id, n)
		}
	}
}

func TestCreateTopicValidation(t *testing.T) {
	sim := des.New()
	c, err := New(sim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 1); err == nil {
		t.Error("duplicate topic accepted")
	}
	if err := c.CreateTopic("x", 0, 1); err == nil {
		t.Error("zero partitions accepted")
	}
	if err := c.CreateTopic("y", 1, 4); err == nil {
		t.Error("replication factor > brokers accepted")
	}
}

func TestAcksLeaderRoundTrip(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	var resp wire.ProduceResponse
	c.HandleProduce(produceReq(1, wire.AcksLeader, 10), func(r wire.ProduceResponse) { resp = r })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrNone || resp.BaseOffset != 0 {
		t.Errorf("resp = %+v", resp)
	}
	if c.Leader("t", 0).Log("t", 0).End() != 1 {
		t.Error("leader log empty")
	}
}

func TestAsyncReplicationReachesFollowers(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	c.HandleProduce(produceReq(1, wire.AcksLeader, 10, 11), nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 3; id++ {
		if end := c.Broker(id).Log("t", 0).End(); end != 2 {
			t.Errorf("broker %d log end = %d, want 2", id, end)
		}
	}
}

// acks=all answers one replication round trip after the followers have
// appended: leader append, a hop, the follower append, a hop back. An
// acks=leader produce of the same batch measures what one append costs.
func TestAcksAllWaitsForFollowers(t *testing.T) {
	respondedAt := func(acks wire.RequiredAcks) time.Duration {
		sim := des.New()
		c := newCluster(t, sim)
		var at time.Duration = -1
		c.HandleProduce(produceReq(1, acks, 5), func(wire.ProduceResponse) { at = sim.Now() })
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if acks == wire.AcksAll {
			for id := int32(0); id < 3; id++ {
				if end := c.Broker(id).Log("t", 0).End(); end != 1 {
					t.Errorf("broker %d log end = %d, want 1", id, end)
				}
			}
		}
		return at
	}
	appendCost := respondedAt(wire.AcksLeader)
	if appendCost <= 0 {
		t.Fatalf("acks=leader responded at %v", appendCost)
	}
	if at, want := respondedAt(wire.AcksAll), 2*appendCost+2*interBrokerDelay; at != want {
		t.Errorf("acks=all responded at %v, want %v (two appends of %v and two %v hops)", at, want, appendCost, interBrokerDelay)
	}
}

func TestAcksAllMinISR(t *testing.T) {
	sim := des.New()
	cfg := DefaultConfig()
	cfg.MinISR = 3
	c, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.FailBroker(2); err != nil {
		t.Fatal(err)
	}
	var resp wire.ProduceResponse
	c.HandleProduce(produceReq(1, wire.AcksAll, 5), func(r wire.ProduceResponse) { resp = r })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrNotEnoughReplicas {
		t.Errorf("Err = %v, want ErrNotEnoughReplicas", resp.Err)
	}
}

func TestAcksNoneNeverResponds(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	called := false
	c.HandleProduce(produceReq(1, wire.AcksNone, 7), func(wire.ProduceResponse) { called = true })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("acks=0 produced a response")
	}
	if c.Leader("t", 0).Log("t", 0).End() != 1 {
		t.Error("acks=0 record not persisted")
	}
}

func TestUnknownTopicProduce(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	var resp wire.ProduceResponse
	req := produceReq(9, wire.AcksLeader, 1)
	req.Topic = "ghost"
	c.HandleProduce(req, func(r wire.ProduceResponse) { resp = r })
	if resp.Err != wire.ErrUnknownTopicOrPartition {
		t.Errorf("Err = %v", resp.Err)
	}
}

func TestLeaderFailover(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	oldLeader := c.Leader("t", 0).ID()
	if err := c.FailBroker(oldLeader); err != nil {
		t.Fatal(err)
	}
	newLeader := c.Leader("t", 0)
	if newLeader == nil || newLeader.ID() == oldLeader {
		t.Fatal("no failover happened")
	}
	// Produce to the new leader still works.
	var resp wire.ProduceResponse
	c.HandleProduce(produceReq(2, wire.AcksLeader, 42), func(r wire.ProduceResponse) { resp = r })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrNone {
		t.Errorf("produce after failover: %v", resp.Err)
	}
}

func TestDeadLeaderDropsRequests(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	// Kill every broker: partition leaderless.
	for id := int32(0); id < 3; id++ {
		if err := c.FailBroker(id); err != nil {
			t.Fatal(err)
		}
	}
	called := false
	c.HandleProduce(produceReq(1, wire.AcksLeader, 1), func(wire.ProduceResponse) { called = true })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("leaderless partition responded")
	}
}

func TestRecoverBrokerCatchesUp(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	victim := c.Leader("t", 0).ID()
	if err := c.FailBroker(victim); err != nil {
		t.Fatal(err)
	}
	// Write while the victim is down.
	for i := 0; i < 5; i++ {
		c.HandleProduce(produceReq(uint32(i), wire.AcksLeader, uint64(i)), nil)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := c.RecoverBroker(victim); err != nil {
		t.Fatal(err)
	}
	if end := c.Broker(victim).Log("t", 0).End(); end != 5 {
		t.Errorf("recovered broker log end = %d, want 5", end)
	}
}

func TestFailUnknownBroker(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	if err := c.FailBroker(99); err == nil {
		t.Error("unknown broker accepted")
	}
	if err := c.RecoverBroker(-1); err == nil {
		t.Error("unknown broker accepted")
	}
}

func TestFetchFromLeader(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	c.HandleProduce(produceReq(1, wire.AcksLeader, 10, 11, 12), nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	var resp wire.FetchResponse
	c.HandleFetch(wire.FetchRequest{Topic: "t", Partition: 0, Offset: 0, MaxRecords: 10},
		func(r wire.FetchResponse) { resp = r })
	if resp.Err != wire.ErrNone || len(resp.Records) != 3 {
		t.Errorf("fetch = %+v", resp)
	}
	var missing wire.FetchResponse
	c.HandleFetch(wire.FetchRequest{Topic: "ghost"}, func(r wire.FetchResponse) { missing = r })
	if missing.Err != wire.ErrUnknownTopicOrPartition {
		t.Errorf("ghost fetch err = %v", missing.Err)
	}
}

func TestValidationNew(t *testing.T) {
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil simulator accepted")
	}
}

// TestServerOverTransport exercises the full request path: client
// endpoint → produce frame over lossy-capable transport → server dispatch
// → cluster → response frame back. In the lossy case the request spans
// some 45 segments, so at 5 % loss the transport retransmits part of it
// and the frame must still reassemble intact, and the reply link — the
// produce response and the transport's acks — drops some of its segments
// too.
func TestServerOverTransport(t *testing.T) {
	for _, tc := range []struct {
		name    string
		loss    float64 // per-packet, both directions
		seed    uint64
		records int
		payload int
	}{
		{name: "clean", records: 2, payload: 1},
		{name: "lossy", loss: 0.05, seed: 2, records: 300, payload: 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := des.New()
			link := func(seed uint64) netem.Config {
				if tc.loss == 0 {
					return netem.Config{}
				}
				l, err := stats.NewBernoulli(tc.loss, rand.New(rand.NewPCG(seed, 5)))
				if err != nil {
					t.Fatal(err)
				}
				return netem.Config{Delay: stats.Constant{Value: 10}, Loss: l, Bandwidth: 100e6}
			}
			path, err := netem.NewPath(sim, link(tc.seed), link(tc.seed+1))
			if err != nil {
				t.Fatal(err)
			}
			conn, err := transport.NewConn(sim, path, transport.Config{})
			if err != nil {
				t.Fatal(err)
			}
			c := newCluster(t, sim)
			if _, err := NewServer(c, conn.Server); err != nil {
				t.Fatal(err)
			}

			var produce wire.ProduceResponse
			var split wire.Splitter
			conn.Client.OnReceive(func(b []byte) {
				frames, err := split.Push(b)
				if err != nil {
					t.Errorf("client splitter: %v", err)
					return
				}
				for _, f := range frames {
					if f.API != wire.APIProduce {
						t.Errorf("reply frame with API key %d", f.API)
						continue
					}
					r, err := (*wire.Decoder)(nil).ProduceResponse(f.Body)
					if err != nil {
						t.Errorf("decode produce response: %v", err)
						continue
					}
					produce = r
				}
			})

			preq := wire.ProduceRequest{CorrelationID: 1, Topic: "t", Partition: 0, Acks: wire.AcksLeader}
			for i := 0; i < tc.records; i++ {
				preq.Batch.Records = append(preq.Batch.Records,
					wire.Record{Key: uint64(100 + i), Payload: make([]byte, tc.payload)})
			}
			if err := conn.Client.Send(wire.AppendFrame(nil, wire.APIProduce, preq.Encode(nil))); err != nil {
				t.Fatal(err)
			}
			if err := sim.RunLimit(10_000_000); err != nil {
				t.Fatal(err)
			}
			if produce.CorrelationID != 1 || produce.Err != wire.ErrNone {
				t.Errorf("produce = %+v", produce)
			}
			var fetch wire.FetchResponse
			c.HandleFetch(wire.FetchRequest{Topic: "t", MaxRecords: int32(tc.records)}, func(r wire.FetchResponse) { fetch = r })
			if fetch.Err != wire.ErrNone || len(fetch.Records) != tc.records {
				t.Fatalf("fetch: err %v, %d records, want %d", fetch.Err, len(fetch.Records), tc.records)
			}
			for i, rec := range fetch.Records {
				if rec.Key != uint64(100+i) || len(rec.Payload) != tc.payload {
					t.Fatalf("stored record %d has key %d and a %d-byte payload, want key %d and %d bytes",
						i, rec.Key, len(rec.Payload), 100+i, tc.payload)
				}
			}
			if lost := path.Rev.Counters().LostRandom; tc.loss > 0 && lost == 0 {
				t.Error("the reply link dropped nothing: the case did not exercise a lossy reply path")
			}
		})
	}
}

func TestServerDropsGarbage(t *testing.T) {
	sim := des.New()
	path, err := netem.NewPath(sim, netem.Config{}, netem.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.NewConn(sim, path, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, sim)
	srv, err := NewServer(c, conn.Server)
	if err != nil {
		t.Fatal(err)
	}
	// Syntactically valid frames with API keys the server does not
	// dispatch: one nothing ever used, and Kafka's Fetch key, which no
	// client sends over the network (fetches are in-process calls).
	for _, api := range []uint16{250, 1} {
		if err := conn.Client.Send(wire.AppendFrame(nil, api, []byte("junk"))); err != nil {
			t.Fatal(err)
		}
	}
	// A produce frame with a corrupt body.
	if err := conn.Client.Send(wire.AppendFrame(nil, wire.APIProduce, []byte{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.DroppedFrames != 3 {
		t.Errorf("DroppedFrames = %d, want 3", srv.DroppedFrames)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Error("nil args accepted")
	}
}

// Property: after any interleaving of produces, broker failures and
// recoveries, every live replica's log is a prefix of its partition
// leader's log (replication never diverges).
func TestPropertyReplicationPrefixConsistency(t *testing.T) {
	f := func(seed uint64, opsRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		sim := des.New()
		c, err := New(sim, DefaultConfig())
		if err != nil {
			return false
		}
		if err := c.CreateTopic("t", 2, 3); err != nil {
			return false
		}
		key := uint64(0)
		ops := int(opsRaw%40) + 10
		for i := 0; i < ops; i++ {
			switch rng.IntN(5) {
			case 0: // fail a random broker (keep at least one up)
				up := 0
				for id := int32(0); id < 3; id++ {
					if c.Broker(id).Up() {
						up++
					}
				}
				if up > 1 {
					_ = c.FailBroker(int32(rng.IntN(3)))
				}
			case 1: // recover a random broker
				_ = c.RecoverBroker(int32(rng.IntN(3)))
			default: // produce a record to a random partition
				key++
				req := wire.ProduceRequest{
					Topic:     "t",
					Partition: int32(rng.IntN(2)),
					Acks:      wire.AcksLeader,
					Batch:     wire.RecordBatch{Records: []wire.Record{{Key: key}}},
				}
				c.HandleProduce(req, nil)
				if err := sim.Run(); err != nil {
					return false
				}
			}
		}
		// Recover everything so catch-up completes, then check prefixes.
		for id := int32(0); id < 3; id++ {
			if err := c.RecoverBroker(id); err != nil {
				return false
			}
		}
		if err := sim.Run(); err != nil {
			return false
		}
		for p := int32(0); p < 2; p++ {
			leader := c.Leader("t", p)
			if leader == nil {
				return false
			}
			llog := leader.Log("t", p)
			ref, err := llog.ReadInto(0, int(llog.End()), nil)
			if err != nil {
				return false
			}
			for id := int32(0); id < 3; id++ {
				rlog := c.Broker(id).Log("t", p)
				if rlog == nil || rlog.End() > llog.End() {
					return false
				}
				got, err := rlog.ReadInto(0, int(rlog.End()), nil)
				if err != nil {
					return false
				}
				for i := range got {
					if got[i].Record.Key != ref[i].Record.Key {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestHandleProduceAnswersAtMostOncePerCall drives produce requests at
// every acks level through a cluster whose brokers stop, crash, slow
// down and recover under them — requests in every stage of leader
// append and follower replication when the topology moves — and counts
// the answers per call. A caller may free what it tied to a request on
// the request's answer (the coordinators' pooled jobs do), so a second
// answer to one call would be a use after free; no answer at all (a dead
// leader swallowed the request) is allowed and expected.
func TestHandleProduceAnswersAtMostOncePerCall(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		sim := des.New()
		c := newCluster(t, sim)
		var answers []int
		acks := []wire.RequiredAcks{wire.AcksNone, wire.AcksLeader, wire.AcksAll, wire.AcksAll}
		for step := 0; step < 400; step++ {
			switch id := int32(rng.IntN(3)); rng.IntN(12) {
			case 0:
				c.FailBroker(id)
			case 1:
				c.CrashBrokerUnclean(id)
			case 2, 3:
				c.RecoverBroker(id)
			case 4:
				c.Broker(id).SetSlowdown(float64(1 + rng.IntN(40)))
			default:
				call := len(answers)
				answers = append(answers, 0)
				req := produceReq(uint32(call), acks[rng.IntN(len(acks))], uint64(call))
				if rng.IntN(2) == 0 { // half idempotent, a few of them retries of an earlier sequence
					req.Batch.ProducerID, req.Batch.Idempotent = 7, true
					req.Batch.BaseSequence = uint64(call - rng.IntN(2)*rng.IntN(call+1))
				}
				c.HandleProduce(req, func(resp wire.ProduceResponse) {
					if resp.CorrelationID != uint32(call) {
						t.Errorf("seed %d: call %d answered with correlation id %d", seed, call, resp.CorrelationID)
					}
					answers[call]++
				})
			}
			if err := sim.RunUntil(sim.Now() + time.Duration(rng.IntN(400))*time.Microsecond); err != nil {
				t.Fatal(err)
			}
		}
		for id := int32(0); id < 3; id++ {
			c.Broker(id).SetSlowdown(1)
			c.RecoverBroker(id)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		answered := 0
		for call, n := range answers {
			if n > 1 {
				t.Errorf("seed %d: call %d answered %d times", seed, call, n)
			}
			answered += n
		}
		if answered < len(answers)/4 || answered == len(answers) {
			t.Errorf("seed %d: %d of %d calls answered; want a mix of answered and swallowed", seed, answered, len(answers))
		}
	}
}
