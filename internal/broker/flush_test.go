package broker

import (
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

// flushBroker builds a broker with a 100ms flush interval on partition t/0.
func flushBroker(t *testing.T, sim *des.Simulator) *Broker {
	t.Helper()
	cfg := DefaultConfig()
	cfg.FlushInterval = 100 * time.Millisecond
	b, err := New(1, sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b.CreatePartition("t", 0)
	return b
}

// appendAt appends a batch directly at a virtual time.
func appendAt(t *testing.T, sim *des.Simulator, b *Broker, at time.Duration, bt wire.RecordBatch, idem bool) {
	t.Helper()
	sim.Schedule(at, func() {
		if _, _, code := b.Append("t", 0, bt, idem); code != wire.ErrNone {
			t.Errorf("append at %v: %v", at, code)
		}
	})
}

func TestUncleanCrashLosesUnflushedTail(t *testing.T) {
	sim := des.New()
	b := flushBroker(t, sim)
	appendAt(t, sim, b, 30*time.Millisecond, batch(1, 1, 1), false)
	appendAt(t, sim, b, 60*time.Millisecond, batch(1, 2, 2), false)
	// Crossing the 100ms boundary flushes the pre-append state {1,2},
	// then appends key 3 into the new, unflushed tail.
	appendAt(t, sim, b, 150*time.Millisecond, batch(1, 3, 3), false)
	sim.Schedule(160*time.Millisecond, b.CrashUnclean)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	log := b.Log("t", 0)
	if log.End() != 2 {
		t.Fatalf("log end after unclean crash = %d, want 2 (key 3 truncated)", log.End())
	}
	st := b.Stats()
	if st.RecordsTruncated != 1 || st.UncleanCrashes != 1 {
		t.Errorf("stats = %+v, want 1 truncated / 1 unclean crash", st)
	}
}

func TestUncleanCrashAtBoundaryFlushesEverything(t *testing.T) {
	sim := des.New()
	b := flushBroker(t, sim)
	appendAt(t, sim, b, 30*time.Millisecond, batch(1, 1, 1), false)
	appendAt(t, sim, b, 150*time.Millisecond, batch(1, 2, 2), false)
	// Crash at 210ms: the 200ms boundary passed after the last append, so
	// both records count as flushed — nothing is lost.
	sim.Schedule(210*time.Millisecond, b.CrashUnclean)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if end := b.Log("t", 0).End(); end != 2 {
		t.Fatalf("log end = %d, want 2", end)
	}
	if st := b.Stats(); st.RecordsTruncated != 0 {
		t.Errorf("RecordsTruncated = %d, want 0", st.RecordsTruncated)
	}
}

func TestCleanStopFlushesTail(t *testing.T) {
	sim := des.New()
	b := flushBroker(t, sim)
	appendAt(t, sim, b, 30*time.Millisecond, batch(1, 1, 1), false)
	sim.Schedule(40*time.Millisecond, b.Stop)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Log("t", 0).Flushed(); got != 1 {
		t.Fatalf("flushed offset after clean stop = %d, want 1", got)
	}
}

func TestUncleanCrashRollsBackProducerState(t *testing.T) {
	sim := des.New()
	b := flushBroker(t, sim)
	// Batch seq 1 lands before the boundary; seq 2 after it.
	appendAt(t, sim, b, 30*time.Millisecond, batch(7, 1, 1), true)
	appendAt(t, sim, b, 150*time.Millisecond, batch(7, 2, 2), true)
	sim.Schedule(160*time.Millisecond, b.CrashUnclean)
	sim.Schedule(170*time.Millisecond, b.Start)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Seq 2 was truncated with the tail. A retry of it must append again,
	// not be dedupe-acked off the stale sequence state...
	base, dup, code := b.Append("t", 0, batch(7, 2, 2), true)
	if code != wire.ErrNone || dup || base != 1 {
		t.Fatalf("retry of truncated batch: base=%d dup=%v code=%v, want fresh append at 1", base, dup, code)
	}
	// ...while a retry of the flushed seq-1 batch still dedupes.
	if _, dup, _ := b.Append("t", 0, batch(7, 1, 1), true); !dup {
		t.Error("retry of flushed batch was not deduplicated")
	}
}

func TestZeroFlushIntervalMakesUncleanCrashClean(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim) // default config: FlushInterval 0
	appendAt(t, sim, b, 30*time.Millisecond, batch(1, 1, 1), false)
	sim.Schedule(40*time.Millisecond, b.CrashUnclean)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if end := b.Log("t", 0).End(); end != 1 {
		t.Fatalf("log end = %d, want 1 (no flush interval: all appends durable)", end)
	}
}

func TestCatchUpFromAdoptsLeaderProducerState(t *testing.T) {
	sim := des.New()
	b := flushBroker(t, sim)
	leader := flushBroker(t, sim)
	// The leader holds producer 7's batches 3 and 5; sequence 4 is a
	// pipelined batch that had not landed yet.
	leader.Append("t", 0, batch(7, 3, 1, 2), true)
	leader.Append("t", 0, batch(7, 5, 3, 4, 5), true)
	// A producer only the stale replica saw is dropped by the catch-up.
	b.Append("t", 0, batch(8, 0, 9), true)
	if err := b.CatchUpFrom(leader, "t", 0); err != nil {
		t.Fatal(err)
	}
	if end, flushed := b.Log("t", 0).End(), b.Log("t", 0).Flushed(); end != 5 || flushed != 5 {
		t.Fatalf("caught-up log end %d flushed %d, want 5 and 5", end, flushed)
	}
	if off, dup, _ := b.Append("t", 0, batch(7, 5, 9), true); !dup || off != 2 {
		t.Errorf("retry of adopted batch: dup=%v off=%d, want dedupe at 2", dup, off)
	}
	if _, dup, _ := b.Append("t", 0, batch(7, 6, 10), true); dup {
		t.Error("batch past adopted high-water was deduplicated")
	}
	// Sequence 4 is below the high-water but was never appended: it must
	// append, not be dropped off the high-water.
	if _, dup, _ := b.Append("t", 0, batch(7, 4, 11), true); dup {
		t.Error("unseen out-of-order batch was falsely deduplicated")
	}
	if _, dup, _ := b.Append("t", 0, batch(8, 0, 12), true); dup {
		t.Error("a producer the leader never saw kept its stale dedupe state")
	}
}

// TestOutOfOrderPipelinedBatchAppends is the max-in-flight > 1 case the
// chaos checker caught: two pipelined batches arrive out of sequence
// order; the late lower-sequence batch is NEW and must be appended —
// a bare high-water comparison would drop it while acking it, losing
// acknowledged records.
func TestOutOfOrderPipelinedBatchAppends(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	if _, dup, _ := b.Append("t", 0, batch(7, 2, 2), true); dup {
		t.Fatal("first batch deduplicated")
	}
	if base, dup, _ := b.Append("t", 0, batch(7, 1, 1), true); dup || base != 1 {
		t.Fatalf("out-of-order new batch: dup=%v base=%d, want append at 1", dup, base)
	}
	// A true retry of either batch still dedupes to its own offset.
	if off, dup, _ := b.Append("t", 0, batch(7, 2, 2), true); !dup || off != 0 {
		t.Errorf("retry of seq 2: dup=%v off=%d, want dedupe at 0", dup, off)
	}
	if off, dup, _ := b.Append("t", 0, batch(7, 1, 1), true); !dup || off != 1 {
		t.Errorf("retry of seq 1: dup=%v off=%d, want dedupe at 1", dup, off)
	}
}

func TestSetSlowdownScalesServiceTime(t *testing.T) {
	sim := des.New()
	b := newBroker(t, sim)
	b.SetSlowdown(4)
	var respAt time.Duration
	first := batch(1, 1, 1)
	b.Produce(wire.ProduceRequest{Topic: "t", Acks: wire.AcksLeader, Batch: first},
		false, func(_ any, _ wire.ProduceResponse) { respAt = sim.Now() }, nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 4 * serviceTimeOf(first); respAt != want {
		t.Errorf("slowed response at %v, want %v", respAt, want)
	}
	b.SetSlowdown(1)
	var secondAt time.Duration
	start := sim.Now()
	second := batch(1, 2, 2)
	b.Produce(wire.ProduceRequest{Topic: "t", Acks: wire.AcksLeader, Batch: second},
		false, func(_ any, _ wire.ProduceResponse) { secondAt = sim.Now() }, nil)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if want := serviceTimeOf(second); secondAt-start != want {
		t.Errorf("nominal response took %v, want %v", secondAt-start, want)
	}
}
