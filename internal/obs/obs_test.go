package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("z", QueueDepthBounds)
	c.Inc()
	h.Observe(1)
	if c != nil || h.Max() != 0 {
		t.Error("nil handles recorded values")
	}
	if got := r.Snapshot(); len(got.Counters)+len(got.Histograms) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", got)
	}
	var o *Obs
	o.Histogram("z", QueueDepthBounds).Observe(1)
	o.Tracer().Emit(LayerDES, "whatever", 0, 0, 0, "")
}

func TestHotPathDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram(MQueueDepth, QueueDepthBounds)
	var nilC *Counter
	for name, fn := range map[string]func(){
		"counter-inc":  func() { c.Inc() },
		"hist-observe": func() { h.Observe(7) },
		"nil-counter":  func() { nilC.Inc() },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per op, want 0", name, allocs)
		}
	}
}

func TestCounterHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.v != 5 {
		t.Errorf("counter = %d, want 5", c.v)
	}
	if r.Counter("c") != c {
		t.Error("counter handle not cached by name")
	}

	h := r.Histogram("h", []int64{0, 2, 4})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	want := []uint64{1, 2, 2, 2} // <=0, <=2, <=4, overflow
	got := h.counts
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSnapshotDeterministicEncoding(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		// Register in one order…
		r.Counter("b").Inc()
		r.Counter("a").Inc()
		r.Counter("b").Inc()
		r.Histogram("q", []int64{1, 2}).Observe(2)
		return r.Snapshot()
	}
	build2 := func() Snapshot {
		r := NewRegistry()
		// …and the reverse order; the snapshot must not care.
		r.Histogram("q", []int64{1, 2}).Observe(2)
		r.Counter("b").Inc()
		r.Counter("a").Inc()
		r.Counter("b").Inc()
		return r.Snapshot()
	}
	if !reflect.DeepEqual(build(), build2()) {
		t.Errorf("snapshot depends on registration order:\n%+v\nvs\n%+v", build(), build2())
	}
	s := build()
	if want := []CounterValue{{"a", 1}, {"b", 2}}; !reflect.DeepEqual(s.Counters, want) {
		t.Errorf("snapshot readings wrong: %+v", s)
	}
	if _, ok := s.Histogram("q"); !ok {
		t.Error("histogram q missing from snapshot")
	}
	if _, ok := s.Histogram("missing"); ok {
		t.Error("missing histogram in snapshot")
	}
}

type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration { return f.now }

func TestTracerRingAndSink(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(3)
	tr.BindClock(clk)
	var sink bytes.Buffer
	tr.SetSink(&sink)
	for i := 0; i < 5; i++ {
		clk.now = time.Duration(i) * time.Millisecond
		tr.Emit(LayerTransport, EvSegmentSend, uint64(i), 100, 0, "client")
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	// Oldest two evicted.
	if evs[0].Key != 2 || evs[2].Key != 4 {
		t.Errorf("ring contents %+v", evs)
	}
	if evs[2].At != 4*time.Millisecond {
		t.Errorf("event not stamped with virtual time: %v", evs[2].At)
	}
	if tr.Total() != 5 {
		t.Errorf("total = %d, want 5", tr.Total())
	}
	// The sink saw all five, eviction notwithstanding.
	var parsed []Event
	for dec := json.NewDecoder(&sink); dec.More(); {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, ev)
	}
	if len(parsed) != 5 {
		t.Fatalf("sink holds %d events, want 5", len(parsed))
	}
	if parsed[0] != (Event{Layer: LayerTransport, Type: EvSegmentSend, Key: 0, Value: 100, Detail: "client"}) {
		t.Errorf("round-tripped event %+v", parsed[0])
	}
}

func TestDuplicateChains(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	events := []Event{
		// Batch 1: clean delivery — no chain.
		{At: at(0), Layer: LayerProducer, Type: EvBatchSend, Key: 1, Value: 2, Aux: 1},
		{At: at(1), Layer: LayerBroker, Type: EvAppend, Key: 1, Value: 0, Aux: 0},
		{At: at(2), Layer: LayerProducer, Type: EvBatchAck, Key: 1},
		// Batch 1 replicated to followers: same seq, different brokers —
		// must NOT count as a duplicate.
		{At: at(3), Layer: LayerBroker, Type: EvAppend, Key: 1, Value: 0, Aux: 1},
		{At: at(3), Layer: LayerBroker, Type: EvAppend, Key: 1, Value: 0, Aux: 2},
		// Batch 2: the Fig. 8 chain — send, append, spurious timeout,
		// retry, duplicate append on the same broker.
		{At: at(10), Layer: LayerProducer, Type: EvBatchSend, Key: 2, Value: 2, Aux: 1},
		{At: at(11), Layer: LayerBroker, Type: EvAppend, Key: 2, Value: 2, Aux: 0},
		{At: at(12), Layer: LayerProducer, Type: EvRequestTimeout, Key: 2, Value: 9},
		{At: at(13), Layer: LayerProducer, Type: EvBatchRetry, Key: 2, Aux: 2},
		{At: at(14), Layer: LayerProducer, Type: EvBatchSend, Key: 2, Value: 2, Aux: 2},
		{At: at(15), Layer: LayerBroker, Type: EvAppend, Key: 2, Value: 4, Aux: 0},
		{At: at(16), Layer: LayerProducer, Type: EvBatchAck, Key: 2},
	}
	chains := DuplicateChains(events)
	if len(chains) != 1 {
		t.Fatalf("%d chains, want 1 (replication must not count)", len(chains))
	}
	chain := chains[0]
	if chain[0].Key != 2 {
		t.Errorf("chain key = %d, want 2", chain[0].Key)
	}
	if !IsCompleteDuplicateChain(chain) {
		t.Errorf("chain not complete: %+v", chain)
	}
	if IsCompleteDuplicateChain(chains[0][:2]) {
		t.Error("truncated chain reported complete")
	}

	// Idempotent mode: duplicate_drop marks the chain complete.
	idem := []Event{
		{At: at(0), Type: EvBatchSend, Key: 7, Aux: 1},
		{At: at(1), Type: EvAppend, Key: 7, Aux: 0},
		{At: at(2), Type: EvRequestTimeout, Key: 7},
		{At: at(3), Type: EvBatchRetry, Key: 7, Aux: 2},
		{At: at(4), Type: EvBatchSend, Key: 7, Aux: 2},
		{At: at(5), Type: EvDuplicateDrop, Key: 7, Aux: 0},
	}
	chains = DuplicateChains(idem)
	if len(chains) != 1 || !IsCompleteDuplicateChain(chains[0]) {
		t.Errorf("idempotent duplicate chain not detected: %+v", chains)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(LayerDES, "x", 0, 0, 0, "")
	tr.BindClock(&fakeClock{})
	tr.SetSink(&bytes.Buffer{})
	if tr.Events() != nil || tr.Total() != 0 || tr.Err() != nil {
		t.Error("nil tracer not inert")
	}
}
