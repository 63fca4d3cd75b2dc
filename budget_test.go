package kafkarel_test

// The root package's cost budgets, each a tier-1 test: the observability
// registry's overhead on a Fig. 7 run, the per-record span path's zero
// allocations, and the allocation ceilings of two whole runs. Host cost
// is measured by the repository benchmark (bench/README.md), with repeats
// and their spread; these are the bars one test run can hold: allocation
// counts, which are exact, and a wall-clock bar coarse enough for the
// minimum of a few interleaved rounds.

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"kafkarel"
	"kafkarel/internal/chaos/campaign"
	"kafkarel/internal/figures"
	"kafkarel/internal/obs"
	"kafkarel/internal/testbed"
)

func obsBudgetExperiment(seed uint64) kafkarel.Experiment {
	return kafkarel.Experiment{
		Features: kafkarel.Features{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        10,
			LossRate:       0.20,
			Semantics:      kafkarel.AtLeastOnce,
			BatchSize:      2,
			MessageTimeout: 500 * time.Millisecond,
		},
		Messages: 2000,
		Seed:     seed,
	}
}

// TestObsOverheadBudget asserts the registry's cost bar: with metrics
// enabled (the default), a Fig. 7 run must finish within 2% of the
// fully disabled run. Wall-clock on shared CI machines (and under the
// race detector) is noisy at the ±10% level, so both variants run
// interleaved and the minimum round — the least scheduler-disturbed
// observation — is compared against the 2% design bar plus an explicit
// noise allowance. The regression this guards against is a hot-path
// mistake (a lock, an allocation, reflection) that would cost 2-10x,
// far outside any noise band; the repository benchmark's
// obs.enabled_overhead_ratio measures the precise figure.
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	if raceEnabled {
		t.Skip("race detector instruments every memory access; the 2% bar applies to production builds")
	}
	const rounds = 7
	const (
		vDisabled = iota // DisableMetrics: the nil-handle baseline
		vEnabled         // default registry
		vTimeline        // registry + timeline sampling every virtual 1 s
	)
	run := func(variant int, seed uint64) time.Duration {
		e := obsBudgetExperiment(seed)
		switch variant {
		case vDisabled:
			e.DisableMetrics = true
		case vTimeline:
			e.Timeline = obs.NewTimeline(time.Second)
		}
		start := time.Now()
		if _, err := kafkarel.RunExperiment(e); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm up every path once so lazy init does not bias round 0.
	for v := vDisabled; v <= vTimeline; v++ {
		run(v, 0)
	}
	minOf := func(d []time.Duration) time.Duration {
		m := d[0]
		for _, v := range d[1:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	var off, on, tl []time.Duration
	for r := 0; r < rounds; r++ {
		off = append(off, run(vDisabled, uint64(r)))
		on = append(on, run(vEnabled, uint64(r)))
		tl = append(tl, run(vTimeline, uint64(r)))
	}
	base, instr, timeline := minOf(off), minOf(on), minOf(tl)
	noise := base / 8 // ±12.5% scheduler/frequency jitter allowance
	if noise < 2*time.Millisecond {
		noise = 2 * time.Millisecond
	}
	budget := base + base/50 + noise // 2% design bar + noise
	t.Logf("disabled min %v, enabled min %v (delta %+.2f%%), timeline min %v (delta %+.2f%%), budget %v",
		base, instr, 100*(float64(instr)-float64(base))/float64(base),
		timeline, 100*(float64(timeline)-float64(base))/float64(base), budget)
	if instr > budget {
		t.Errorf("metrics overhead too high: enabled %v > budget %v (disabled %v)", instr, budget, base)
	}
	// The timeline samples at virtual ticks, never per event, so even at
	// 10x the default density it must stay inside the same 2% bar.
	if timeline > budget {
		t.Errorf("timeline overhead too high: %v > budget %v (disabled %v)", timeline, budget, base)
	}
}

// spanPathObserve plays one delivered record through the full span set
// of the delivery path — wire send, broker append, replication,
// producer ack, consumer delivery, durable commit — exactly the
// histogram writes the instrumented components issue per record.
func spanPathObserve(lat int64, spans *[6]*obs.Histogram) {
	for _, h := range spans {
		h.Observe(lat)
	}
}

func spanPathHists(o *obs.Obs) [6]*obs.Histogram {
	return [6]*obs.Histogram{
		o.Histogram(obs.MSpanSend, obs.LatencyBounds),
		o.Histogram(obs.MSpanAppend, obs.LatencyBounds),
		o.Histogram(obs.MSpanReplicated, obs.LatencyBounds),
		o.Histogram(obs.MSpanAck, obs.LatencyBounds),
		o.Histogram(obs.MSpanDelivery, obs.LatencyBounds),
		o.Histogram(obs.MSpanCommit, obs.LatencyBounds),
	}
}

// TestSpanPathZeroAllocs enforces the span hot-path allocation budget:
// observing a record's spans allocates nothing, enabled or disabled.
func TestSpanPathZeroAllocs(t *testing.T) {
	o := &obs.Obs{Registry: obs.NewRegistry()}
	enabled := spanPathHists(o)
	disabled := spanPathHists(nil)
	var lat int64
	if n := testing.AllocsPerRun(1000, func() {
		lat += 17
		spanPathObserve(lat, &enabled)
	}); n != 0 {
		t.Errorf("enabled span path allocates %.1f per record", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		lat += 17
		spanPathObserve(lat, &disabled)
	}); n != 0 {
		t.Errorf("disabled span path allocates %.1f per record", n)
	}
}

// TestWholeRunAllocationCeilings holds five whole runs, on one worker,
// to their measured allocation costs plus 20%: the allocation counts of
// Fig. 7 at 600 records per point (88 experiments), the allocation count
// and the bytes per record of a 32-producer fleet over 8 topic shards
// with keyed routing and a consumer-group drain (its offset commits ride
// the replicated offsets log), the bytes per record of an ingest-shaped
// run (the benchmark's ingest_steady at 20000 records: 200 B messages,
// B = 10, RF 3, four partitions, 1 ms), and the allocation count and the
// bytes per acquired record of an eight-trial exactly-once chaos campaign
// with consumer groups and the end-to-end verifier (the first campaign of
// the benchmark's chaos_mix). On go1.24 the two counts were pinned at 42549 and 14693,
// and read 42637-42638 and 14722-14724 once fetches copied out into a
// per-broker scratch; since pooled jobs and metric handles come in blocks
// (des.FreeList, the obs.Registry's blocks) they read 23080-23081 and
// 11230-11232 and are pinned there, so the ceiling no longer lets the
// counts drift back to the old ones; a free list's first block sized by
// its value's bytes reads 23236-23237 and 11152-11153. Three runs read
// 474.6-475.1 B for the fleet's bytes before the blocks and 483.3-483.4 B
// after (a block's unused tail); since the verifiers count keys in dense
// arrays and read the group's logs in place it reads 448.4-448.6 B and is
// pinned there. The campaign read 1334.2-1335.0 B with hash-map key sets
// and copied evidence, 956.7-957.0 B after. The ingest run reads 116.4 B.
// Since a partition replica is one block's share and a recovering one
// copies its leader's state in place, Fig. 7 reads 20409 allocations
// (23236-23237 before), the fleet 9165-9167 (11150-11153) and the campaign
// 4586-4588 (6212-6214), and the three counts are pinned there; the
// fleet's bytes read 441.4-441.5 B and the campaign's 881.7-881.9 B.
// Since a partition's producer and transaction state lives in pid-ordered
// slices, Fig. 7 reads 19881-19882 allocations, the fleet 8343 and the
// campaign 4158-4161, and its bytes 869.6-869.9 B; the four are pinned
// there. The fleet's bytes read 453.3-453.9 B, above their 448.5 B pin
// and inside its ceiling: a table grows by doubling where a map added one
// state at a time, and that pin is kept.
// So the 20% is room for deliberate change, not noise: a cost that grows
// with the records, even one allocation or one header copy per record,
// breaks it. Race builds run extra checks on the producer, consumer and
// storage paths that allocate, and skip.
func TestWholeRunAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race builds allocate in their extra checks")
	}
	// allocs counts the allocations of one run.
	allocs := func(run func() error) func(*testing.T) float64 {
		return func(t *testing.T) float64 {
			return testing.AllocsPerRun(1, func() {
				if err := run(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	// bytes measures the bytes one run allocates per record.
	bytes := func(records int, run func() error) func(*testing.T) float64 {
		return func(t *testing.T) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := run()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
		}
	}
	const fleetRecords = 9600
	fleet := func() error {
		res, err := testbed.RunFleetContext(context.Background(), testbed.Fleet{
			Features: kafkarel.Features{
				MessageSize:    200,
				Timeliness:     5 * time.Second,
				DelayMs:        5,
				LossRate:       0.02,
				Semantics:      kafkarel.AtLeastOnce,
				BatchSize:      2,
				MessageTimeout: 2 * time.Second,
			},
			Producers: 32, Topics: 8, Partitions: 8, Messages: fleetRecords, Seed: 1,
		}, 1)
		if err == nil && res.Acquired != fleetRecords {
			err = fmt.Errorf("acquired = %d, want %d", res.Acquired, fleetRecords)
		}
		return err
	}
	// chaos runs the campaign and returns the records it acquired.
	chaos := func() (uint64, error) {
		sc, err := campaign.Run(context.Background(), campaign.Config{
			Mode: campaign.ModeExactlyOnce, E2E: true, Trials: 8, Seed: 1, Workers: 1,
		})
		if err != nil {
			return 0, err
		}
		if sc.Failed > 0 {
			return 0, fmt.Errorf("%d of %d trials failed verification", sc.Failed, sc.Trials)
		}
		var records uint64
		for _, row := range sc.Rows {
			records += row.Acquired
		}
		return records, nil
	}
	const ingestRecords = 20000
	for _, c := range []struct {
		name     string
		unit     string
		measured float64
		measure  func(*testing.T) float64
	}{
		{"fig7", "allocations", 19882, allocs(func() error {
			points, err := figures.Fig7(figures.Options{Messages: 600, Seed: 1, Workers: 1})
			if err == nil && len(points) != 88 {
				err = fmt.Errorf("%d points, want 88", len(points))
			}
			return err
		})},
		{"fleet", "allocations", 8343, allocs(fleet)},
		{"fleet-bytes", "B per record", 448.5, bytes(fleetRecords, fleet)},
		{"ingest", "B per record", 116.4, bytes(ingestRecords, func() error {
			res, err := testbed.Run(testbed.Experiment{
				Features: kafkarel.Features{
					MessageSize:    200,
					Timeliness:     5 * time.Second,
					DelayMs:        1,
					Semantics:      kafkarel.AtLeastOnce,
					BatchSize:      10,
					MessageTimeout: 1500 * time.Millisecond,
				},
				Messages: ingestRecords, Seed: 1, Partitions: 4, ReplicationFactor: 3,
			})
			if err == nil && res.Acquired != ingestRecords {
				err = fmt.Errorf("acquired = %d, want %d", res.Acquired, ingestRecords)
			}
			return err
		})},
		{"chaos-allocs", "allocations", 4161, allocs(func() error {
			_, err := chaos()
			return err
		})},
		{"chaos-bytes", "B per record", 869.9, func(t *testing.T) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			records, err := chaos()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := c.measure(t)
			ceiling := c.measured * 6 / 5
			t.Logf("%.1f %s, ceiling %.1f (%g pinned + 20%%)", got, c.unit, ceiling, c.measured)
			if got > ceiling {
				t.Errorf("%.1f %s, want <= %.1f", got, c.unit, ceiling)
			}
		})
	}
}
