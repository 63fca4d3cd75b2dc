package obs_test

import (
	"testing"
	"time"

	"kafkarel/internal/obs"
	"kafkarel/internal/testbed"
)

// A fleet gives each shard its own registry and folds the shards'
// snapshots in one place, testbed.MetricsSnapshot.Merge. These tests
// check that fold from the producing side: registries written one per
// shard, read back through Snapshot and folded, give what the merge
// policy promises. A shard's counts and high-water marks come from its
// layers and its rig, not from the registry, so the tests set them on
// the snapshot directly.

// metrics reads the histogram these tests write out of an obs snapshot,
// field for field as a run's MetricsSnapshot carries it.
func metrics(s obs.Snapshot) testbed.MetricsSnapshot {
	var m testbed.MetricsSnapshot
	if h, ok := s.Histogram(obs.MSpanDelivery); ok {
		copy(m.SpanDelivery.Counts[:], h.Counts)
		m.SpanDelivery.Max = time.Duration(h.Max)
	}
	return m
}

func fold(snaps ...testbed.MetricsSnapshot) testbed.MetricsSnapshot {
	var m testbed.MetricsSnapshot
	for _, s := range snaps {
		m.Merge(s)
	}
	return m
}

// TestShardedMerge checks that three shard registries fold to what one
// flat registry that saw every update records: counts sum, the RTO
// high-water mark takes the maximum, histogram buckets sum, and a
// metric only one shard touched still appears.
func TestShardedMerge(t *testing.T) {
	flat := obs.NewRegistry()
	var shards []testbed.MetricsSnapshot
	for i := 0; i < 3; i++ {
		r := obs.NewRegistry()
		for _, reg := range []*obs.Registry{r, flat} {
			reg.Histogram(obs.MSpanDelivery, obs.LatencyBounds).Observe(int64(1000 * (i + 1)))
		}
		m := metrics(r.Snapshot())
		m.RTOMax = time.Duration(100 * (i + 1))
		m.BrokerAppends = uint64(10 * (i + 1))
		if i == 1 {
			m.Retransmits = 7
		}
		shards = append(shards, m)
	}

	got := fold(shards...)
	if got.BrokerAppends != 60 {
		t.Errorf("appends = %d, want 60", got.BrokerAppends)
	}
	if got.Retransmits != 7 {
		t.Errorf("retransmits = %d, want 7 (only shard 1 touched it)", got.Retransmits)
	}
	if got.RTOMax != 300 {
		t.Errorf("rto max = %d, want 300 (max across shards)", got.RTOMax)
	}
	if n := got.SpanDelivery.Total(); n != 3 {
		t.Errorf("histogram observations = %d, want 3", n)
	}
	want := metrics(flat.Snapshot())
	want.RTOMax, want.BrokerAppends, want.Retransmits = 300, 60, 7
	if got != want {
		t.Errorf("sharded merge != flat registry:\n%s\nvs\n%s", got.Encode(), want.Encode())
	}
}

// TestMergeSnapshotsAssociative checks the fold order cannot matter,
// the property that makes a fleet's aggregate the same for every
// worker count.
func TestMergeSnapshotsAssociative(t *testing.T) {
	mk := func(appends, v uint64) testbed.MetricsSnapshot {
		r := obs.NewRegistry()
		r.Histogram(obs.MSpanDelivery, obs.LatencyBounds).Observe(int64(v) * int64(time.Second))
		m := metrics(r.Snapshot())
		m.BrokerAppends, m.Retransmits = appends, v
		return m
	}
	a, b, c := mk(1, 1), mk(0, 2), mk(3, 3)
	left, right := fold(fold(a, b), c), fold(a, fold(b, c))
	if left != right {
		t.Errorf("merge not associative:\n%s\nvs\n%s", left.Encode(), right.Encode())
	}
	if left.Retransmits != 6 || left.BrokerAppends != 4 {
		t.Errorf("retransmits = %d appends = %d, want 6 and 4", left.Retransmits, left.BrokerAppends)
	}
	if left.SpanDelivery.Total() != 3 || left.SpanDelivery.Max != 3*time.Second {
		t.Errorf("delivery span total = %d max = %v, want 3 and 3s",
			left.SpanDelivery.Total(), left.SpanDelivery.Max)
	}
}

// TestGaugeKindMergeAssociative checks that the snapshot's gauges fold
// by what they measure, and associatively: the high-water marks (RTO
// max, replication factor) take the maximum, the end-of-run consumer
// lag adds.
func TestGaugeKindMergeAssociative(t *testing.T) {
	mk := func(rto, rf, lag int64) testbed.MetricsSnapshot {
		return testbed.MetricsSnapshot{RTOMax: time.Duration(rto), ReplicationFactor: rf, ConsumerLagEnd: lag}
	}
	a, b, c := mk(5, 1, 10), mk(9, 3, 20), mk(2, 2, 30)
	left, right := fold(fold(a, b), c), fold(a, fold(b, c))
	if left != right {
		t.Errorf("gauge merge not associative:\n%s\nvs\n%s", left.Encode(), right.Encode())
	}
	if left.RTOMax != 9 || left.ReplicationFactor != 3 {
		t.Errorf("rto max = %d rf = %d, want the maxima 9 and 3", left.RTOMax, left.ReplicationFactor)
	}
	if left.ConsumerLagEnd != 60 {
		t.Errorf("lag = %d, want the sum 60", left.ConsumerLagEnd)
	}
}
