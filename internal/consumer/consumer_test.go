package consumer

import (
	"math/rand/v2"
	"testing"

	"kafkarel/internal/cluster"
	"kafkarel/internal/des"
	"kafkarel/internal/wire"
)

func seededCluster(t *testing.T, keys []uint64) *cluster.Cluster {
	t.Helper()
	sim := des.New()
	c, err := cluster.New(sim, cluster.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTopic("t", 1, 1); err != nil {
		t.Fatal(err)
	}
	recs := make([]wire.Record, 0, len(keys))
	for _, k := range keys {
		recs = append(recs, wire.Record{Key: k})
	}
	c.Leader("t", 0).Log("t", 0).Append(recs)
	return c
}

// consumeAll drains the partition, copying each fetched run out of the
// callback as a retaining caller must.
func consumeAll(cons *Consumer) ([]wire.Record, error) {
	var out []wire.Record
	err := cons.Consume(func(run []wire.Record) { out = append(out, run...) })
	return out, err
}

// reconcile tallies records against source keys 1..sourceCount.
func reconcile(sourceCount uint64, records []wire.Record) Report {
	tally := NewTally(sourceCount)
	tally.Add(records)
	return tally.Report()
}

func TestConsumeAll(t *testing.T) {
	c := seededCluster(t, []uint64{1, 2, 3, 4, 5})
	cons, err := New(c, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := consumeAll(cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Key != 1 || got[4].Key != 5 {
		t.Errorf("got %d records", len(got))
	}
}

func TestConsumeAllPaginates(t *testing.T) {
	keys := make([]uint64, 10_000)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	c := seededCluster(t, keys)
	cons, err := New(c, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := consumeAll(cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10_000 {
		t.Fatalf("got %d records, want 10000", len(got))
	}
	for i, r := range got {
		if r.Key != uint64(i+1) {
			t.Fatalf("record %d key = %d", i, r.Key)
		}
	}
}

func TestConsumeEmptyTopic(t *testing.T) {
	c := seededCluster(t, nil)
	cons, err := New(c, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := consumeAll(cons)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %d records from empty topic", len(got))
	}
}

// The partition is resolved once, in New, which is where an unknown one
// is refused; one that has lost its leader is refused by Consume.
func TestConsumeUnknownTopic(t *testing.T) {
	c := seededCluster(t, []uint64{1, 2, 3})
	if _, err := New(c, "ghost", 0); err == nil {
		t.Error("unknown topic accepted")
	}
	if _, err := New(c, "t", 1); err == nil {
		t.Error("unknown partition accepted")
	}
	cons, err := New(c, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FailBroker(c.Leader("t", 0).ID()); err != nil {
		t.Fatal(err)
	}
	if got, err := consumeAll(cons); err == nil {
		t.Errorf("leaderless partition drained: %d records", len(got))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, "t", 0); err == nil {
		t.Error("nil cluster accepted")
	}
	c := seededCluster(t, nil)
	if _, err := New(c, "", 0); err == nil {
		t.Error("empty topic accepted")
	}
}

func TestReconcileCleanDelivery(t *testing.T) {
	recs := []wire.Record{{Key: 1}, {Key: 2}, {Key: 3}}
	rep := reconcile(3, recs)
	if rep.NLost != 0 || rep.NDuplicated != 0 || rep.Distinct != 3 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Pl() != 0 || rep.Pd() != 0 {
		t.Errorf("Pl/Pd = %v/%v", rep.Pl(), rep.Pd())
	}
}

func TestReconcileLossAndDuplicates(t *testing.T) {
	// Source 1..10; 3 and 7 lost; 2 delivered three times; 5 twice.
	var recs []wire.Record
	for _, k := range []uint64{1, 2, 2, 2, 4, 5, 5, 6, 8, 9, 10} {
		recs = append(recs, wire.Record{Key: k})
	}
	rep := reconcile(10, recs)
	if rep.NLost != 2 {
		t.Errorf("NLost = %d, want 2", rep.NLost)
	}
	if rep.NDuplicated != 2 {
		t.Errorf("NDuplicated = %d, want 2", rep.NDuplicated)
	}
	if rep.ExtraCopies != 3 {
		t.Errorf("ExtraCopies = %d, want 3", rep.ExtraCopies)
	}
	if rep.Pl() != 0.2 || rep.Pd() != 0.2 {
		t.Errorf("Pl/Pd = %v/%v", rep.Pl(), rep.Pd())
	}
}

func TestReconcileForeignKeys(t *testing.T) {
	recs := []wire.Record{{Key: 0}, {Key: 11}, {Key: 1}}
	rep := reconcile(10, recs)
	if rep.Foreign != 2 {
		t.Errorf("Foreign = %d, want 2", rep.Foreign)
	}
	if rep.Distinct != 1 {
		t.Errorf("Distinct = %d, want 1", rep.Distinct)
	}
}

func TestReconcileEmptySource(t *testing.T) {
	rep := reconcile(0, nil)
	if rep.Pl() != 0 || rep.Pd() != 0 {
		t.Error("zero source produced nonzero rates")
	}
}

// reconcileByMap is the reference the dense Tally replaced: count every
// in-range key in a map.
func reconcileByMap(sourceCount uint64, records []wire.Record) Report {
	rep := Report{SourceCount: sourceCount}
	seen := make(map[uint64]uint64, len(records))
	for _, rec := range records {
		if rec.Key == 0 || rec.Key > sourceCount {
			rep.Foreign++
			continue
		}
		seen[rec.Key]++
	}
	rep.Distinct = uint64(len(seen))
	rep.NLost = sourceCount - rep.Distinct
	for _, n := range seen {
		if n > 1 {
			rep.NDuplicated++
			rep.ExtraCopies += n - 1
		}
	}
	return rep
}

// Property: on random key multisets — lost keys, keys duplicated many
// times, key 0, keys past the source range, the range's two ends — a
// Tally fed in arbitrary runs reports exactly what the map does.
func TestPropertyTallyMatchesMapReconcile(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 9))
		n := uint64(rng.IntN(60)) // 0 is a legal source size
		var recs []wire.Record
		for i := rng.IntN(300); i > 0; i-- {
			var k uint64
			switch r := rng.IntN(20); {
			case r == 0:
				k = 0
			case r == 1:
				k = n + 1 + uint64(rng.IntN(5))
			case r == 2:
				k = ^uint64(0) - uint64(rng.IntN(2))
			case r == 3:
				k = n // the last source key (or 0 when the source is empty)
			case r < 8 && len(recs) > 0:
				k = recs[rng.IntN(len(recs))].Key // duplicate an earlier delivery
			default:
				k = 1 + uint64(rng.IntN(int(n)+1))
			}
			recs = append(recs, wire.Record{Key: k})
		}
		tally := NewTally(n)
		for rest := recs; len(rest) > 0; {
			cut := rng.IntN(len(rest)) + 1
			tally.Add(rest[:cut])
			rest = rest[cut:]
		}
		if got, want := tally.Report(), reconcileByMap(n, recs); got != want {
			t.Fatalf("seed %d (n=%d, %d records): tally %+v, map %+v", seed, n, len(recs), got, want)
		}
	}
}

// Consume hands fn each fetch's records whole, copied out of the leader's
// log across its segments (64, 64, 128, ... records): one call per
// 4096-record fetch, in offset order, and the fetch requests the broker
// counts stay the ones they always were.
func TestConsumeHandsOutWholeFetches(t *testing.T) {
	keys := make([]uint64, 5000) // two fetches of up to 4096, then the empty one
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	c := seededCluster(t, keys)
	cons, err := New(c, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	next := 0
	err = cons.Consume(func(recs []wire.Record) {
		sizes = append(sizes, len(recs))
		for i, r := range recs {
			if r.Key != keys[next+i] {
				t.Fatalf("record at offset %d has key %d, want %d", next+i, r.Key, keys[next+i])
			}
		}
		next += len(recs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[0] != fetchMax || next != 5000 {
		t.Errorf("fetches of %v records covering %d, want [%d %d] covering 5000", sizes, next, fetchMax, 5000-fetchMax)
	}
	if got := c.Leader("t", 0).Stats().FetchRequests; got != 3 {
		t.Errorf("%d fetch requests counted, want 3", got)
	}
}
