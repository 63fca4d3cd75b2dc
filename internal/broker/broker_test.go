package broker

import (
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

func batch(producerID, seq uint64, keys ...uint64) wire.RecordBatch {
	b := wire.RecordBatch{ProducerID: producerID, BaseSequence: seq}
	for _, k := range keys {
		b.Records = append(b.Records, wire.Record{Key: k, Payload: []byte("xx")})
	}
	return b
}

func newBroker(t *testing.T, sim *des.Simulator) *Broker {
	t.Helper()
	b, err := New(1, sim, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.CreatePartition("t", 0)
	return b
}

func TestHandleProduceAppendsAndResponds(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	var resp wire.ProduceResponse
	got := false
	b.Produce(wire.ProduceRequest{
		CorrelationID: 7, Topic: "t", Partition: 0, Acks: wire.AcksLeader,
		Batch: batch(1, 0, 10, 11),
	}, false, func(_ any, r wire.ProduceResponse) { resp = r; got = true }, nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("no response")
	}
	if resp.CorrelationID != 7 || resp.Err != wire.ErrNone || resp.BaseOffset != 0 {
		t.Errorf("resp = %+v", resp)
	}
	if b.Log("t", 0).End() != 2 {
		t.Errorf("log end = %d, want 2", b.Log("t", 0).End())
	}
	if b.Stats().RecordsAppended != 2 {
		t.Errorf("RecordsAppended = %d", b.Stats().RecordsAppended)
	}
}

// serviceTimeOf is the append cost of a batch at the broker's constants:
// the fixed latency plus the per-byte cost of every encoded record.
func serviceTimeOf(batch wire.RecordBatch) time.Duration {
	d := appendLatency
	for _, r := range batch.Records {
		d += time.Duration(r.EncodedSize()) * appendPerByte
	}
	return d
}

func TestServiceTimeDelaysResponse(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	var at [2]time.Duration
	small, large := batch(1, 0, 1), batch(1, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	for i, bt := range []wire.RecordBatch{small, large} {
		start := sim.Now()
		b.Produce(wire.ProduceRequest{Topic: "t", Batch: bt}, false,
			func(_ any, _ wire.ProduceResponse) { at[i] = sim.Now() - start }, nil)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if want := serviceTimeOf(small); at[0] != want {
		t.Errorf("one record responded after %v, want %v", at[0], want)
	}
	if want := serviceTimeOf(large); at[1] != want || at[1] <= at[0] {
		t.Errorf("eight records responded after %v, want %v (> %v)", at[1], want, at[0])
	}
}

func TestUnknownPartition(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	var resp wire.ProduceResponse
	b.Produce(wire.ProduceRequest{Topic: "nope", Batch: batch(1, 0, 1)}, false,
		func(_ any, r wire.ProduceResponse) { resp = r }, nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrUnknownTopicOrPartition {
		t.Errorf("Err = %v", resp.Err)
	}
}

func TestStoppedBrokerDropsRequests(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	b.Stop()
	called := false
	b.Produce(wire.ProduceRequest{Topic: "t", Batch: batch(1, 0, 1)}, false,
		func(_ any, _ wire.ProduceResponse) { called = true }, nil)
	b.HandleFetch(wire.FetchRequest{Topic: "t"}, func(wire.FetchResponse) { called = true })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("stopped broker responded")
	}
	if !b.Up() {
		b.Start()
	}
	b.Start()
	if !b.Up() {
		t.Error("broker not up after Start")
	}
}

func TestCrashMidServiceDropsAppend(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	called := false
	b.Produce(wire.ProduceRequest{Topic: "t", Batch: batch(1, 0, 1)}, false,
		func(_ any, _ wire.ProduceResponse) { called = true }, nil)
	sim.Schedule(appendLatency/2, b.Stop)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("crashed broker completed the append")
	}
	if b.Log("t", 0).End() != 0 {
		t.Error("append survived mid-service crash")
	}
}

func TestIdempotentDedup(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	// Original batch.
	base, dup, code := b.Append("t", 0, batch(42, 5, 1, 2), true)
	if base != 0 || dup || code != wire.ErrNone {
		t.Fatalf("first append = %d, %v, %v", base, dup, code)
	}
	// Retry of the same sequence: deduplicated, original offset returned.
	base, dup, code = b.Append("t", 0, batch(42, 5, 1, 2), true)
	if base != 0 || !dup || code != wire.ErrNone {
		t.Fatalf("retry append = %d, %v, %v", base, dup, code)
	}
	if b.Log("t", 0).End() != 2 {
		t.Errorf("log end = %d, want 2 (no duplicate records)", b.Log("t", 0).End())
	}
	if b.Stats().DuplicatesDropped != 1 {
		t.Errorf("DuplicatesDropped = %d", b.Stats().DuplicatesDropped)
	}
	// Next sequence appends normally.
	base, dup, code = b.Append("t", 0, batch(42, 6, 3), true)
	if base != 2 || dup || code != wire.ErrNone {
		t.Fatalf("next append = %d, %v, %v", base, dup, code)
	}
	// Different producer IDs do not collide.
	base, dup, _ = b.Append("t", 0, batch(43, 5, 9), true)
	if base != 3 || dup {
		t.Fatalf("other producer = %d, %v", base, dup)
	}
}

func TestNonIdempotentAppendsDuplicates(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	b.Append("t", 0, batch(1, 5, 1), false)
	b.Append("t", 0, batch(1, 5, 1), false) // same sequence, appended again
	if b.Log("t", 0).End() != 2 {
		t.Errorf("log end = %d, want 2 (duplicate persisted)", b.Log("t", 0).End())
	}
}

func TestHandleFetch(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	b.Append("t", 0, batch(1, 0, 10, 11, 12), false)
	var resp wire.FetchResponse
	b.HandleFetch(wire.FetchRequest{Topic: "t", Partition: 0, Offset: 1, MaxRecords: 10},
		func(r wire.FetchResponse) { resp = r })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if resp.Err != wire.ErrNone || resp.HighWatermark != 3 {
		t.Errorf("resp = %+v", resp)
	}
	if len(resp.Records) != 2 || resp.Records[0].Key != 11 {
		t.Errorf("records = %+v", resp.Records)
	}
	if b.Stats().FetchRequests != 1 {
		t.Errorf("FetchRequests = %d", b.Stats().FetchRequests)
	}
}

func TestFetchErrors(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	var resp wire.FetchResponse
	b.HandleFetch(wire.FetchRequest{Topic: "missing"}, func(r wire.FetchResponse) { resp = r })
	if resp.Err != wire.ErrUnknownTopicOrPartition {
		t.Errorf("missing topic err = %v", resp.Err)
	}
	b.HandleFetch(wire.FetchRequest{Topic: "t", Offset: 99}, func(r wire.FetchResponse) { resp = r })
	if resp.Err == wire.ErrNone {
		t.Error("out-of-range offset accepted")
	}
	_ = sim
}

func TestCreatePartitionIdempotent(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	b.Append("t", 0, batch(1, 0, 1), false)
	b.CreatePartition("t", 0) // must not wipe the log
	if b.Log("t", 0).End() != 1 {
		t.Error("CreatePartition reset an existing log")
	}
}

// Creating topics and partitions between two resolves of another topic
// (the topic table grows and moves meanwhile) leaves the first resolve's
// answer standing, and absent topics and partitions stay absent.
func TestResolveAcrossTopicCreation(t *testing.T) {
	b := newBroker(t, des.New())
	b.Append("t", 0, batch(1, 0, 1), false)
	before := b.resolve("t", 0)
	for _, topic := range []string{"__consumer_offsets", "__transaction_state", "u", "v", "w"} {
		b.CreatePartition(topic, 1)
		if b.resolve("t", 0) != before {
			t.Fatalf("creating %q changed what (t, 0) resolves to", topic)
		}
		if p := b.resolve(topic, 1); p == nil || p == before {
			t.Errorf("(%s, 1) resolves to %p after creation", topic, p)
		}
		if b.resolve(topic, 0) != nil || b.resolve(topic, 2) != nil || b.resolve(topic, -1) != nil {
			t.Errorf("%q resolves a partition that was never created", topic)
		}
	}
	b.CreatePartition("t", 3)
	if b.resolve("t", 0) != before || b.Log("t", 0).End() != 1 {
		t.Error("creating (t, 3) disturbed (t, 0)")
	}
	if b.resolve("absent", 0) != nil {
		t.Error("an absent topic resolved")
	}
	n := 0
	b.each(func(*part) { n++ })
	if n != 7 {
		t.Errorf("%d partitions walked, want 7", n)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, nil, DefaultConfig()); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := New(1, des.New(), Config{FlushInterval: -1}); err == nil {
		t.Error("negative flush interval accepted")
	}
}
