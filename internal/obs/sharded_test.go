package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestShardedMerge checks the merge semantics: counters sum, gauges
// take the maximum, histogram buckets sum, and the merged snapshot is
// byte-identical regardless of which shard saw which update.
func TestShardedMerge(t *testing.T) {
	s := NewSharded(3)
	if len(s.shards) != 3 {
		t.Fatalf("shards = %d, want 3", len(s.shards))
	}
	for i := 0; i < 3; i++ {
		s.Shard(i).Counter(MBrokerAppends).Add(uint64(10 * (i + 1)))
		s.Shard(i).Gauge(MSimQueueMax).SetMax(int64(100 * (i + 1)))
		s.Shard(i).Histogram(MQueueDepth, QueueDepthBounds).Observe(int64(i))
	}
	// A metric only one shard touched must still appear.
	s.Shard(1).Counter(MRetransmits).Add(7)

	m := s.Merged()
	if got := m.Counter(MBrokerAppends); got != 60 {
		t.Errorf("appends = %d, want 60", got)
	}
	if got := m.Counter(MRetransmits); got != 7 {
		t.Errorf("retransmits = %d, want 7", got)
	}
	if got := m.Gauge(MSimQueueMax); got != 300 {
		t.Errorf("queue max = %d, want 300 (max across shards)", got)
	}
	h, ok := m.Histogram(MQueueDepth)
	if !ok {
		t.Fatal("queue-depth histogram missing from merged snapshot")
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("histogram observations = %d, want 3", total)
	}

	// Mirror the updates into one flat registry: the merged snapshot of
	// the shards must encode identically (counters and histograms; the
	// gauge is a running max in both layouts).
	flat := NewRegistry()
	flat.Counter(MBrokerAppends).Add(60)
	flat.Counter(MRetransmits).Add(7)
	flat.Gauge(MSimQueueMax).SetMax(300)
	for i := 0; i < 3; i++ {
		flat.Histogram(MQueueDepth, QueueDepthBounds).Observe(int64(i))
	}
	if !reflect.DeepEqual(m, flat.Snapshot()) {
		t.Errorf("sharded merge != flat registry:\n%+v\nvs\n%+v", m, flat.Snapshot())
	}
}

// TestShardedParallelWritersMerge is the single-writer contract's one
// legitimate concurrent shape, for the race detector to check: every
// goroutine registers and writes only its own shard, and the shards are
// read (Merged) only after all of them have been waited for.
func TestShardedParallelWritersMerge(t *testing.T) {
	const writers, incs = 4, 10_000
	s := NewSharded(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := s.Shard(w)
			c := r.Counter(MBrokerAppends)
			g := r.Gauge(MSimQueueMax)
			h := r.Histogram(MQueueDepth, QueueDepthBounds)
			for k := 0; k < incs; k++ {
				c.Inc()
				g.SetMax(int64(w*incs + k))
				h.Observe(int64(k % 5))
			}
		}()
	}
	wg.Wait()
	m := s.Merged()
	if got := m.Counter(MBrokerAppends); got != writers*incs {
		t.Errorf("appends = %d, want %d", got, writers*incs)
	}
	if got := m.Gauge(MSimQueueMax); got != writers*incs-1 {
		t.Errorf("queue max = %d, want %d", got, writers*incs-1)
	}
	if h, _ := m.Histogram(MQueueDepth); h.Total() != writers*incs || h.Max != 4 {
		t.Errorf("histogram total = %d max = %d, want %d and 4", h.Total(), h.Max, writers*incs)
	}
}

// TestShardedNil pins the disabled-implementation contract.
func TestShardedNil(t *testing.T) {
	var s *Sharded
	if s.Shard(0) != nil {
		t.Error("nil Sharded returned a live registry")
	}
	s.Shard(0).Counter("x").Inc() // must not panic
	if m := s.Merged(); !reflect.DeepEqual(m, Snapshot{}) {
		t.Errorf("nil merge = %+v", m)
	}
	live := NewSharded(2)
	if live.Shard(-1) != nil || live.Shard(2) != nil {
		t.Error("out-of-range shard index returned a live registry")
	}
}

// TestMergeSnapshotsAssociative checks the fold order cannot matter —
// the property the fleet's shard-order merge relies on.
func TestMergeSnapshotsAssociative(t *testing.T) {
	mk := func(n string, v uint64) Snapshot {
		r := NewRegistry()
		r.Counter(n).Add(v)
		r.Counter("shared").Add(v)
		return r.Snapshot()
	}
	a, b, c := mk("a", 1), mk("b", 2), mk("c", 3)
	left := MergeSnapshots(MergeSnapshots(a, b), c)
	right := MergeSnapshots(a, MergeSnapshots(b, c))
	if !reflect.DeepEqual(left, right) {
		t.Errorf("merge not associative:\n%+v\nvs\n%+v", left, right)
	}
	if got := left.Counter("shared"); got != 6 {
		t.Errorf("shared counter = %d, want 6", got)
	}
}

// TestWriteMergedCSV checks the entity column and the deterministic
// interleaving of several tagged timelines.
func TestWriteMergedCSV(t *testing.T) {
	clk := &tlClock{}
	mkTL := func(entity string, times ...time.Duration) *Timeline {
		tl := NewTimeline(time.Second)
		tl.SetEntity(entity)
		tl.BindClock(clk)
		for _, at := range times {
			clk.now = at
			tl.Sample()
		}
		return tl
	}
	a := mkTL("t000/p0000", 0, time.Second, 2*time.Second)
	b := mkTL("t000", 0, 2*time.Second)
	clk.now = time.Second
	b.Annotate(AnnBrokerEvent, "fail broker 0")

	var buf bytes.Buffer
	if err := WriteMergedCSV(&buf, []*Timeline{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+3+2+1 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "at_ns,kind,entity,") {
		t.Fatalf("header = %q", lines[0])
	}
	wantOrder := []string{
		"0,sample,t000/p0000",
		"0,sample,t000",
		"1000000000,sample,t000/p0000",
		"1000000000,broker_event,t000",
		"2000000000,sample,t000/p0000",
		"2000000000,sample,t000",
	}
	for i, want := range wantOrder {
		if !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("line %d = %q, want prefix %q", i+1, lines[i+1], want)
		}
	}
	var buf2 bytes.Buffer
	if err := WriteMergedCSV(&buf2, []*Timeline{a, b}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated merged renders differ")
	}
}
