package cluster

import (
	"bytes"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// These tests pin the record-payload ownership contract (DESIGN.md):
// Server.dispatch makes the one stored copy of a produced payload (one
// per run of equal payloads), and every replica log stores those bytes as
// they are.

// ownedServer is a Server without a transport: produce responses land in
// resps instead of on an endpoint.
func ownedServer(c *Cluster, resps *[]wire.ProduceResponse) *Server {
	s := &Server{cluster: c}
	s.onProduce = func(r wire.ProduceResponse) { *resps = append(*resps, r) }
	return s
}

func produceFrame(corr uint32, acks wire.RequiredAcks, payloads ...string) []byte {
	req := wire.ProduceRequest{CorrelationID: corr, Topic: "t", Acks: acks}
	for i, p := range payloads {
		req.Batch.Records = append(req.Batch.Records,
			wire.Record{Key: uint64(corr)*10 + uint64(i), Payload: []byte(p)})
	}
	req.Batch.BaseSequence = uint64(corr)
	return wire.EncodeFrame(wire.APIProduce, req.Encode(nil))
}

func payloadsOf(t *testing.T, c *Cluster, id int32) []string {
	t.Helper()
	var out []string
	log := c.Broker(id).Log("t", 0)
	entries, err := log.ReadInto(0, int(log.End()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out = append(out, string(e.Record.Payload))
	}
	return out
}

// The splitter buffer and the network chunk are both reused while the
// produce is still in flight in sim time; no replica's log may notice.
func TestDispatchCopyOutlivesNetworkBuffers(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	var resps []wire.ProduceResponse
	s := ownedServer(c, &resps)

	first := produceFrame(1, wire.AcksAll, "alpha", "beta-beta", "")
	s.onBytes(first)
	// The next frame overwrites the splitter's buffer in place (same
	// length, different bytes), and the sender recycles its chunk.
	second := produceFrame(2, wire.AcksAll, "ALPHA", "BETA-BETA", "")
	if len(second) != len(first) {
		t.Fatalf("frames differ in length: %d vs %d", len(first), len(second))
	}
	s.onBytes(second)
	for i := range first {
		first[i], second[i] = 0xAA, 0x55
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || resps[0].Err != wire.ErrNone || resps[1].Err != wire.ErrNone {
		t.Fatalf("responses = %+v", resps)
	}
	want := []string{"alpha", "beta-beta", "", "ALPHA", "BETA-BETA", ""}
	for id := int32(0); id < 3; id++ {
		got := payloadsOf(t, c, id)
		if len(got) != len(want) {
			t.Fatalf("broker %d holds %d records, want %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("broker %d record %d = %q, want %q", id, i, got[i], want[i])
			}
		}
	}
}

// sameBytes reports whether two payloads are the same memory, not merely
// equal.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// At RF 3 the leader and both followers store the very bytes dispatch
// cloned: one copy of each payload, on both replication paths.
func TestReplicasShareOnePayloadCopy(t *testing.T) {
	for _, acks := range []wire.RequiredAcks{wire.AcksLeader, wire.AcksAll} {
		sim := des.New()
		c := newCluster(t, sim)
		var resps []wire.ProduceResponse
		s := ownedServer(c, &resps)
		s.onBytes(produceFrame(1, acks, "one", "two"))
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		leader, err := c.Leader("t", 0).Log("t", 0).ReadInto(0, 2, nil)
		if err != nil || len(leader) != 2 {
			t.Fatalf("acks=%d: leader read = %v, %v", acks, leader, err)
		}
		for id := int32(0); id < 3; id++ {
			got, err := c.Broker(id).Log("t", 0).ReadInto(0, 2, nil)
			if err != nil || len(got) != 2 {
				t.Fatalf("acks=%d: broker %d read = %v, %v", acks, id, got, err)
			}
			for i := range got {
				if !sameBytes(got[i].Record.Payload, leader[i].Record.Payload) {
					t.Errorf("acks=%d: broker %d record %d has its own payload copy", acks, id, i)
				}
			}
		}
	}
}

// An unclean crash truncates the unflushed tail; catch-up then adopts
// the leader's suffix. Replicas end byte-identical, and the adopted
// records still share the leader's bytes.
func TestUncleanCrashCatchUpKeepsReplicasIdentical(t *testing.T) {
	sim := des.New()
	cfg := DefaultConfig()
	cfg.Broker.FlushInterval = 100 * time.Millisecond
	c, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 3); err != nil {
		t.Fatal(err)
	}
	var resps []wire.ProduceResponse
	s := ownedServer(c, &resps)
	oldLeader := c.Leader("t", 0).ID()
	follower := (oldLeader + 1) % 3

	at := func(ms int, fn func()) { sim.Schedule(time.Duration(ms)*time.Millisecond, fn) }
	for i := 0; i < 12; i++ {
		corr := uint32(i + 1)
		at(10+30*i, func() { s.onBytes(produceFrame(corr, wire.AcksLeader, "payload-a", "payload-b")) })
	}
	// Each crash lands between flush boundaries, so it destroys a tail.
	at(150, func() {
		before := c.Broker(follower).Log("t", 0).End()
		if err := c.CrashBrokerUnclean(follower); err != nil {
			t.Error(err)
		}
		if c.Broker(follower).Log("t", 0).End() >= before {
			t.Error("follower crash truncated nothing")
		}
	})
	at(200, func() {
		if err := c.RecoverBroker(follower); err != nil {
			t.Error(err)
		}
	})
	at(260, func() {
		if err := c.CrashBrokerUnclean(oldLeader); err != nil {
			t.Error(err)
		}
	})
	at(330, func() {
		if err := c.RecoverBroker(oldLeader); err != nil {
			t.Error(err)
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}

	leaderLog := c.Leader("t", 0).Log("t", 0)
	if leaderLog.End() == 0 {
		t.Fatal("leader log is empty")
	}
	want, err := leaderLog.ReadInto(0, int(leaderLog.End()), nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := int32(0); id < 3; id++ {
		log := c.Broker(id).Log("t", 0)
		if !bytes.Equal(logDump(log), logDump(leaderLog)) {
			t.Errorf("broker %d log differs from the leader's (end %d vs %d)", id, log.End(), leaderLog.End())
			continue
		}
		got, err := log.ReadInto(0, int(log.End()), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !sameBytes(got[i].Record.Payload, want[i].Record.Payload) {
				t.Errorf("broker %d offset %d holds a private payload copy", id, i)
			}
		}
	}
}

// The slab hands out a batch's storage from chunks it keeps replacing;
// neither a batch that lands on a chunk boundary nor one larger than any
// chunk (which gets its own) may be disturbed by later batches or by the
// network buffers being reused — and at RF 3 the three logs still share
// the one copy. A run of equal payloads, as a producer of fixed-size
// messages sends them, shares one copy across its offsets, however many
// batches and header chunks it spans.
func TestSlabChunksKeepBatchesApartAcrossBoundaries(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	var resps []wire.ProduceResponse
	s := ownedServer(c, &resps)

	// One request every 100us: each is still in flight (acks=all takes
	// ~600us) when the next arrives and when its frame is scribbled over,
	// yet the leader appends them in send order.
	var want []string
	var prev []byte
	corr := uint32(0)
	send := func(payloads ...string) {
		corr++
		f := produceFrame(corr, wire.AcksAll, payloads...)
		want = append(want, payloads...)
		sim.Schedule(time.Duration(corr)*100*time.Microsecond, func() {
			for i := range prev {
				prev[i] = 0xEE // the sender recycles its last chunk
			}
			s.onBytes(f)
			prev = f
		})
	}
	// 40 batches of ~330 payload bytes and 3 headers cross the 1, 2, 4 and
	// 8 KiB byte chunks and the 16- and 32-record header chunks.
	pad := string(bytes.Repeat([]byte("x"), 100))
	for i := 0; i < 40; i++ {
		tag := string(rune('A' + i%26))
		send(tag+pad, tag+tag+pad, tag+tag+tag+pad)
	}
	// Runs of equal payloads, broken once by a differing payload; the
	// first run's headers cross from the 128- into the 256-record chunk.
	run := string(bytes.Repeat([]byte("r"), 300))
	for i := 0; i < 50; i++ {
		send(run, run, run)
	}
	send(run, "between", run)
	for i := 0; i < 10; i++ {
		send(run, run)
	}
	// Oversized: more bytes than the largest chunk, more records than the
	// largest header chunk.
	huge := string(bytes.Repeat([]byte("H"), 40<<10))
	many := make([]string, 600)
	for i := range many {
		many[i] = string(rune('a' + i%26))
	}
	send(huge, "after-huge")
	send(many...)
	send("tail-1", "tail-2")
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(resps) != int(corr) {
		t.Fatalf("%d responses, want %d", len(resps), corr)
	}
	for _, r := range resps {
		if r.Err != wire.ErrNone {
			t.Fatalf("response %+v", r)
		}
	}
	leader, err := c.Leader("t", 0).Log("t", 0).ReadInto(0, len(want), nil)
	if err != nil || len(leader) != len(want) {
		t.Fatalf("leader holds %d records (%v), want %d", len(leader), err, len(want))
	}
	for id := int32(0); id < 3; id++ {
		got, err := c.Broker(id).Log("t", 0).ReadInto(0, len(want)+1, nil)
		if err != nil || len(got) != len(want) {
			t.Fatalf("broker %d holds %d records (%v), want %d", id, len(got), err, len(want))
		}
		for i := range want {
			if string(got[i].Record.Payload) != want[i] {
				t.Fatalf("broker %d record %d = %.20q, want %.20q", id, i, got[i].Record.Payload, want[i])
			}
			if !sameBytes(got[i].Record.Payload, leader[i].Record.Payload) {
				t.Fatalf("broker %d record %d has its own payload copy", id, i)
			}
		}
	}
	for i := 1; i < len(want); i++ {
		if want[i] != "" && want[i] == want[i-1] && !sameBytes(leader[i].Record.Payload, leader[i-1].Record.Payload) {
			t.Fatalf("record %d repeats record %d's payload in a copy of its own", i, i-1)
		}
	}
}

// Steady-state ingest allocates (almost) nothing per record: a produce
// request is decoded into reused scratch, cloned into the server's slab,
// appended into fixed-capacity segments on three replicas and acked
// through pooled jobs. What is left is the slab's and the logs' chunk
// allocations, a few per thousand records.
func TestSteadyStateProduceAllocatesPerChunkNotPerRecord(t *testing.T) {
	sim := des.New()
	c := newCluster(t, sim)
	acked := 0
	s := &Server{cluster: c}
	s.onProduce = func(r wire.ProduceResponse) {
		if r.Err == wire.ErrNone {
			acked++
		}
	}
	const perRequest = 4
	payloads := []string{"0123456789abcdef", "0123456789abcdef", "0123456789abcdef", "0123456789abcdef"}
	frame := produceFrame(1, wire.AcksAll, payloads...)
	// AllocsPerRun reports whole allocations per run, so a run is a
	// thousand records, not one request.
	const perRun = 250
	requests := func() {
		for i := 0; i < perRun; i++ {
			s.onBytes(frame)
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 12; i++ { // past the small first chunks and segments
		requests()
	}
	const runs = 20
	allocs := testing.AllocsPerRun(runs, requests)
	if want := (12 + runs + 1) * perRun; acked != want {
		t.Fatalf("%d requests acked, want %d", acked, want)
	}
	if perRecord := allocs / (perRun * perRequest); perRecord > 0.05 {
		t.Errorf("%.4f allocations per record on the produce path, want at most 0.05", perRecord)
	}
}
