package producer_test

import (
	"testing"

	"kafkarel/internal/consumer"
	"kafkarel/internal/producer"
	"kafkarel/internal/wire"
)

// consumePartition drains one partition of the rig's topic.
func consumePartition(t *testing.T, r *rig, p int32) []uint64 {
	t.Helper()
	cons, err := consumer.New(r.clst, r.prod.Config().Topic, p)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{}
	err = cons.Consume(func(run []wire.Record) {
		for _, rec := range run {
			keys = append(keys, rec.Key)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestKeyedPartitionerRoutesByKey checks keyed routing: with B=1 every
// batch is one record, so each key must land on the FNV-determined
// partition, the spread must cover several partitions, and re-running
// the experiment must route identically (the hash is fixed, not
// seeded).
func TestKeyedPartitionerRoutesByKey(t *testing.T) {
	const parts = 4
	run := func() [parts][]uint64 {
		cfg := baseConfig()
		cfg.Partitions = parts
		cfg.Partitioner = producer.PartitionKeyed
		r := buildRig(t, cfg, 200, rigOpts{delayMs: 1, partitions: parts})
		rep := r.runMulti(t, parts)
		if rep.NLost != 0 || rep.NDuplicated != 0 {
			t.Fatalf("report = %+v", rep)
		}
		var got [parts][]uint64
		for p := int32(0); p < parts; p++ {
			got[p] = consumePartition(t, r, p)
		}
		return got
	}
	got := run()
	nonEmpty := 0
	for p := 0; p < parts; p++ {
		if len(got[p]) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 2 {
		t.Errorf("keyed routing used %d of %d partitions; hash is not spreading", nonEmpty, parts)
	}
	again := run()
	for p := 0; p < parts; p++ {
		if len(got[p]) != len(again[p]) {
			t.Fatalf("partition %d: %d vs %d records across identical runs", p, len(got[p]), len(again[p]))
		}
		for i := range got[p] {
			if got[p][i] != again[p][i] {
				t.Fatalf("partition %d record %d: key %d vs %d", p, i, got[p][i], again[p][i])
			}
		}
	}
}

// TestKeyBaseOffsetsKeys checks that a producer with KeyBase k emits
// keys k+1..k+N and that ReconcileRangesKeys accepts them while plain
// Reconcile (expecting 1..N) flags them foreign.
func TestKeyBaseOffsetsKeys(t *testing.T) {
	cfg := baseConfig()
	cfg.KeyBase = 1000
	r := buildRig(t, cfg, 50, rigOpts{delayMs: 1})
	r.prod.Start()
	if err := r.sim.RunLimit(50_000_000); err != nil {
		t.Fatal(err)
	}
	keys := consumePartition(t, r, 0)
	if len(keys) != 50 {
		t.Fatalf("consumed %d records, want 50", len(keys))
	}
	for i, k := range keys {
		if k != 1000+uint64(i)+1 {
			t.Fatalf("key[%d] = %d, want %d", i, k, 1000+i+1)
		}
	}
	if got := r.prod.Acquired(); got != 50 {
		t.Errorf("Acquired = %d, want the un-offset count 50", got)
	}
}

// runMulti is rig.run generalised to multi-partition topics.
func (r *rig) runMulti(t testing.TB, partitions int32) consumer.Report {
	t.Helper()
	r.prod.Start()
	if err := r.sim.RunLimit(50_000_000); err != nil {
		t.Fatalf("simulation did not quiesce: %v", err)
	}
	if !r.prod.Done() {
		t.Fatalf("producer not done: counts=%+v", r.prod.Counts())
	}
	tally := consumer.NewTally(uint64(r.count))
	for p := int32(0); p < partitions; p++ {
		cons, err := consumer.New(r.clst, r.prod.Config().Topic, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := cons.Consume(tally.Add); err != nil {
			t.Fatalf("partition %d: %v", p, err)
		}
	}
	return tally.Report()
}
