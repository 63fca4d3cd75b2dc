// Command profile runs one of the repository benchmark's four workloads
// (BENCHMARK.json) under the Go profiler and writes cpu.pprof and
// heap.pprof, so hot-path work is measured against the workload the
// benchmark gates on instead of an ad-hoc one-off run:
//
//	make profile WORKLOAD=ingest_steady   # also writes cpu-top.txt, alloc-top.txt, alloc-objects-top.txt
//	go tool pprof -top cpu.pprof
//	go tool pprof -top -sample_index=alloc_space heap.pprof
//	go tool pprof -top -sample_index=alloc_objects heap.pprof
//
// The heap profile is a count, not an estimate: the CPU-profiled passes
// record no allocation at all, and one more pass after the CPU profile
// has stopped records every one (runtime.MemProfileRate = 1; several times
// slower, which is why it is kept out of the timed passes). The default
// rate of one sample per 512 KiB put producer.trySend at 262 146 objects
// of fig7_sweep where the count is 214 424, and cannot see a site that
// allocates a few thousand small objects at all.
//
// Look at allocated objects as well as allocated bytes: a per-operation
// payload of 30 bytes or a one-element slice is nothing in the byte table
// and can still be most of a workload's mallocgc calls (before PR 19
// HandleOffsetCommit was 86 % of fleet_fanout's objects and 13 % of its
// bytes; flushPart 31 % of chaos_mix's objects; before PR 23 runTxnOn
// was 74.6 % of chaos_mix's objects for 24.9 % of its CPU — 50 closures,
// timers and method values per transaction cycle, none of them 100
// bytes — and 44.0 % / 20.9 % after, the workload's objects 5.11 M →
// 2.05 M).
//
// Count discarded work, not only time. A CPU profile says where time
// goes, not whether what it bought was used: before PR 25, 77.8 % of
// fig7_sweep's produce attempts were built, CRC'd and framed only for the
// socket to refuse them (flushUnsent 16 % cumulative, crc32 6.2 % and
// buildRequest 5.6 % flat), and the profile ranked that as ordinary encode
// cost. A count of attempts against refusals — a throwaway counter, two
// lines — is what showed it was waste.
//
// What a CPU profile shows of the collector is mostly the write barrier
// (gcWriteBarrier, bulkBarrierPreWrite, wbBufFlush), and its cost is the
// time mark phases stay open, not the marking: `make gc-trace
// WORKLOAD=<name>` prints the cycles, their summed and mean
// concurrent-mark clock and its share of the wall time for the same
// workload (before PR 20 a mark phase stayed open 4 ms for 0.15 ms of
// work, 46 % of a fig7_sweep run).
//
// The workload inputs mirror bench/workloads.go (that package is a
// command and cannot be imported); seed and run count are constants, and
// everything runs sequentially — `make profile` pins GOMAXPROCS=1 as the
// benchmark's headline pass does — so profiles attribute cost to the
// simulation stack rather than pool scheduling.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"kafkarel/internal/chaos/campaign"
	"kafkarel/internal/features"
	"kafkarel/internal/figures"
	"kafkarel/internal/testbed"
)

const (
	// seed is the held-out seed perf claims are measured at (seed 1 is
	// pinned in bench/golden.json).
	seed = 2
	// runs is how many times the workload repeats under the CPU profiler:
	// at ≈0.5–1 s a run, enough samples for a stable top. The heap profile
	// is one further run's.
	runs = 8
)

var workloads = map[string]func() error{
	"fig7_sweep": func() error {
		_, err := figures.Fig7(figures.Options{Messages: 4000, Seed: seed, Workers: 1})
		return err
	},
	"ingest_steady": func() error {
		_, err := testbed.Run(testbed.Experiment{
			Features: features.Vector{
				MessageSize:    200,
				Timeliness:     5 * time.Second,
				DelayMs:        1,
				Semantics:      features.SemanticsAtLeastOnce,
				BatchSize:      10,
				MessageTimeout: 1500 * time.Millisecond,
			},
			Messages:          300000,
			Seed:              seed,
			Partitions:        4,
			ReplicationFactor: 3,
		})
		return err
	},
	"fleet_fanout": func() error {
		_, err := testbed.RunFleetContext(context.Background(), testbed.Fleet{
			Features: features.Vector{
				MessageSize:    200,
				Timeliness:     5 * time.Second,
				DelayMs:        5,
				LossRate:       0.02,
				Semantics:      features.SemanticsAtLeastOnce,
				BatchSize:      2,
				MessageTimeout: 1500 * time.Millisecond,
			},
			Producers:         32,
			Topics:            8,
			Partitions:        8,
			Messages:          44800,
			Seed:              seed,
			ConsumersPerTopic: 2,
			Groups:            2,
		}, 1)
		return err
	},
	"chaos_mix": func() error {
		for _, cfg := range []campaign.Config{
			{Mode: campaign.ModeExactlyOnce, E2E: true, Trials: 100},
			{Mode: campaign.ModeTxn, Trials: 100},
			{Mode: campaign.ModeCoop, Trials: 10},
		} {
			cfg.Seed, cfg.Messages, cfg.Workers = seed, 300, 1
			if _, err := campaign.Run(context.Background(), cfg); err != nil {
				return err
			}
		}
		return nil
	},
}

func run() error {
	name := flag.String("workload", "fig7_sweep", "benchmark workload to profile")
	cpuOut := flag.String("cpu", "cpu.pprof", "CPU profile output path")
	heapOut := flag.String("heap", "heap.pprof", "heap profile output path")
	flag.Parse()
	workload, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(names, ", "))
	}

	// The CPU-profiled passes stay out of the heap profile.
	runtime.MemProfileRate = 0
	f, err := os.Create(*cpuOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	start := time.Now()
	for r := 0; r < runs; r++ {
		if err := workload(); err != nil {
			pprof.StopCPUProfile()
			return err
		}
	}
	elapsed := time.Since(start)
	pprof.StopCPUProfile()

	// The counted pass: every allocation recorded. inuse shows the
	// retained working set, alloc_space and alloc_objects the churn; the
	// GC publishes the pass's records into the profile.
	runtime.MemProfileRate = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := workload(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	h, err := os.Create(*heapOut)
	if err != nil {
		return err
	}
	defer h.Close()
	if err := pprof.WriteHeapProfile(h); err != nil {
		return err
	}

	fmt.Printf("%s x%d at seed %d, GOMAXPROCS=%d: %v (%v/run); counted pass: %d allocs, %.1f MiB\n",
		*name, runs, seed, runtime.GOMAXPROCS(0), elapsed.Round(time.Millisecond),
		(elapsed / runs).Round(time.Millisecond), after.Mallocs-before.Mallocs,
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	fmt.Printf("wrote %s and %s\n", *cpuOut, *heapOut)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "profile:", err)
		os.Exit(1)
	}
}
