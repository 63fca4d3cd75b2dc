// Command testbed runs a testbed experiment (one Docker-testbed run in
// the paper's methodology) and prints every measured metric. With
// -fleet N it runs a fleet-scale scenario instead: N producers spread
// over -topics topics of -partitions partitions each, keyed routing,
// consumer groups draining every topic, the topics fanned out over
// -parallel workers with a result identical for any worker count. The
// paper's Sec. IV-C scaling rule is a fleet with one producer per topic
// and -users-per-sec fixing the aggregate rate. The fleet-only flags
// are rejected without -fleet. -metrics prints the observability
// snapshot; -timeline writes entity-tagged timelines as one merged
// CSV; -trace writes the structured event stream of a single run as
// JSONL (it follows one total event order, so fleets reject it).
//
// Usage:
//
//	testbed [-n messages] [-seed n] -size 200 -loss 0.19 -delay 100 \
//	        -semantics at-most-once -batch 1 -poll 0ms -timeout 1500ms \
//	        [-metrics] [-trace out.jsonl] \
//	        [-timeline out.csv [-timeline-interval 10s]] \
//	        [-fleet n -topics t -partitions p -consumers c -groups g [-cooperative] \
//	         [-consumer-faults] [-users-per-sec r] [-lag-timeline lag.csv] [-parallel workers]]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"kafkarel/internal/features"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/testbed"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "testbed:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("testbed", flag.ContinueOnError)
	messages := fs.Int("n", 100000, "source messages (the paper uses 10^6)")
	seed := fs.Uint64("seed", 1, "random seed")
	size := fs.Int("size", 200, "message size M in bytes")
	timeliness := fs.Duration("timeliness", 5*time.Second, "message validity S")
	delay := fs.Float64("delay", 0, "network delay D in ms")
	loss := fs.Float64("loss", 0, "packet loss rate L in [0,1]")
	semantics := fs.String("semantics", "at-least-once", "at-most-once, at-least-once or exactly-once")
	batch := fs.Int("batch", 1, "batch size B")
	poll := fs.Duration("poll", 0, "polling interval δ (0 = full load)")
	timeout := fs.Duration("timeout", 1500*time.Millisecond, "message timeout T_o")
	parallel := fs.Int("parallel", 0, "fleet mode: simulation workers (0 = GOMAXPROCS)")
	metrics := fs.Bool("metrics", false, "print the per-run observability snapshot")
	tracePath := fs.String("trace", "", "write the structured event trace as JSONL to this file (single runs only)")
	timelinePath := fs.String("timeline", "", "write the sim-time timelines as one merged, entity-tagged CSV to this file")
	timelineIvl := fs.Duration("timeline-interval", 0, "timeline sampling interval (0 = default 10s)")
	fleet := fs.Int("fleet", 0, "fleet mode: run N producers over -topics topics with keyed routing and consumer groups")
	topics := fs.Int("topics", 8, "fleet mode: topic count (each topic is one independent shard)")
	partitions := fs.Int("partitions", 32, "fleet mode: per-topic partition count")
	consumers := fs.Int("consumers", 1, "fleet mode: consumer-group members per topic (per group with -groups)")
	groupsN := fs.Int("groups", 1, "fleet mode: consumer-group fan-out per topic (independent groups sharing each shard's coordinator and offsets log)")
	cooperative := fs.Bool("cooperative", false, "fleet mode: run every consumer group under the cooperative incremental rebalance protocol (KIP-429) instead of eager")
	consumerFaults := fs.Bool("consumer-faults", false, "fleet mode: crash and restart group members mid-stream in every shard (needs -consumers >= 2)")
	usersPerSec := fs.Float64("users-per-sec", 0, "fleet mode: aggregate offered load in msg/s, each producer's δ set by the Sec. IV-C scaling rule (0 = -poll)")
	lagTimeline := fs.String("lag-timeline", "", "fleet mode: write the per-partition consumer-lag timeline as CSV to this file (requires -timeline-interval sampling; implied interval 10s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fleet <= 0 {
		var stray []string
		fs.Visit(func(f *flag.Flag) {
			if fleetOnly[f.Name] {
				stray = append(stray, "-"+f.Name)
			}
		})
		if len(stray) > 0 {
			return fmt.Errorf("fleet-only flags without -fleet: %s", strings.Join(stray, ", "))
		}
	}
	sem, err := producer.ParseSemantics(*semantics)
	if err != nil {
		return err
	}
	v := features.Vector{
		MessageSize:    *size,
		Timeliness:     *timeliness,
		DelayMs:        *delay,
		LossRate:       *loss,
		Semantics:      int(sem),
		BatchSize:      *batch,
		PollInterval:   *poll,
		MessageTimeout: *timeout,
	}
	if *fleet > 0 {
		return runFleet(ctx, v, fleetFlags{
			messages:       *messages,
			seed:           *seed,
			producers:      *fleet,
			topics:         *topics,
			partitions:     *partitions,
			consumers:      *consumers,
			groups:         *groupsN,
			cooperative:    *cooperative,
			consumerFaults: *consumerFaults,
			usersPerSec:    *usersPerSec,
			parallel:       *parallel,
			timeline:       *timelinePath,
			timelineIvl:    *timelineIvl,
			lagTimeline:    *lagTimeline,
			trace:          *tracePath,
		})
	}
	e := testbed.Experiment{
		Features:   v,
		Messages:   *messages,
		Seed:       *seed,
		MaxSimTime: 4 * time.Hour,
	}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		traceFile = f
		defer traceFile.Close()
		e.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
		e.Tracer.SetSink(traceFile)
	}
	if *timelinePath != "" {
		e.Timeline = obs.NewTimeline(*timelineIvl)
	}
	res, err := testbed.RunCtx(ctx, e)
	if err != nil {
		return err
	}
	if e.Timeline != nil {
		if err := writeMergedTimeline(*timelinePath, []*obs.Timeline{res.Timeline}); err != nil {
			return err
		}
	}
	if e.Tracer != nil {
		if err := e.Tracer.Err(); err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
		fmt.Printf("trace: %d events written to %s\n", e.Tracer.Total(), *tracePath)
	}
	lat := res.Latency
	fmt.Printf("messages acquired:   %d (completed: %v)\n", res.Acquired, res.Completed)
	fmt.Printf("P_l  (loss):         %.4f  (N_l = %d)\n", res.Pl, res.Report.NLost)
	fmt.Printf("P_d  (duplication):  %.4f  (N_d = %d, extra copies %d)\n", res.Pd, res.Report.NDuplicated, res.Report.ExtraCopies)
	fmt.Printf("throughput:          %.1f msg/s over %v simulated\n", res.Throughput, res.Duration.Round(time.Millisecond))
	fmt.Printf("bandwidth util. phi: %.4f\n", res.BandwidthUtilization)
	fmt.Printf("latency T_p (ms):    mean=%.1f sd=%.1f min=%.1f max=%.1f\n",
		lat.Mean(), lat.StdDev(), lat.Min(), lat.Max())
	fmt.Printf("stale (T_p > S):     %.4f\n", res.StaleRate)
	fmt.Println("message state cases (producer view, Table I):")
	for _, row := range res.Producer.Cases() {
		fmt.Printf("  %-6s %8d (%.4f)\n", row.Case, row.Count, row.Share)
	}
	fmt.Printf("  case5  %8d (%.4f)  [consumer-observed duplicates]\n",
		res.Report.NDuplicated, res.Pd)
	if *metrics {
		fmt.Println("run metrics:")
		fmt.Print(indent(string(res.Metrics.Encode())))
	}
	return nil
}

// fleetOnly names the flags that only shape a fleet run.
var fleetOnly = map[string]bool{
	"topics": true, "partitions": true, "consumers": true, "groups": true,
	"cooperative": true, "consumer-faults": true, "users-per-sec": true,
	"lag-timeline": true, "parallel": true,
}

func indent(s string) string {
	s = strings.TrimRight(s, "\n")
	return "  " + strings.ReplaceAll(s, "\n", "\n  ") + "\n"
}

// writeMergedTimeline renders entity-tagged timelines as one CSV file
// ordered on the shared virtual-time axis.
func writeMergedTimeline(path string, timelines []*obs.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create timeline file: %w", err)
	}
	werr := obs.WriteMergedCSV(f, timelines)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write timeline: %w", werr)
	}
	rows, anns := 0, 0
	for _, tl := range timelines {
		rows += len(tl.Rows())
		anns += len(tl.Annotations())
	}
	fmt.Printf("timeline: %d timelines, %d samples, %d annotations written to %s\n",
		len(timelines), rows, anns, path)
	return nil
}

// writeLagTimeline renders the consumer-lag series of every sampled
// timeline (the topic and group entities carry the group columns) as
// one CSV.
func writeLagTimeline(path string, timelines []*obs.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create lag timeline file: %w", err)
	}
	werr := obs.WriteLagCSV(f, timelines)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write lag timeline: %w", werr)
	}
	fmt.Printf("lag timeline written to %s\n", path)
	return nil
}

// fleetFlags carries the fleet-mode CLI parameters.
type fleetFlags struct {
	messages       int
	seed           uint64
	producers      int
	topics         int
	partitions     int
	consumers      int
	groups         int
	cooperative    bool
	consumerFaults bool
	usersPerSec    float64
	parallel       int
	timeline       string
	timelineIvl    time.Duration
	lagTimeline    string
	trace          string
}

// runFleet executes the fleet-scale scenario and prints its scorecard:
// one line per topic plus fleet totals, byte-identical for any
// -parallel value.
func runFleet(ctx context.Context, v features.Vector, ff fleetFlags) error {
	if ff.trace != "" {
		return fmt.Errorf("-trace requires a single producer (a trace follows one total event order); fleet runs use -timeline")
	}
	f := testbed.Fleet{
		Features:          v,
		Producers:         ff.producers,
		Topics:            ff.topics,
		Partitions:        ff.partitions,
		Messages:          ff.messages,
		Seed:              ff.seed,
		UsersPerSec:       ff.usersPerSec,
		ConsumersPerTopic: ff.consumers,
		Groups:            ff.groups,
		Cooperative:       ff.cooperative,
		ConsumerFaults:    ff.consumerFaults,
		MaxSimTime:        4 * time.Hour,
	}
	if ff.timeline != "" || ff.lagTimeline != "" {
		ivl := ff.timelineIvl
		if ivl <= 0 {
			ivl = 10 * time.Second
		}
		f.TimelineInterval = ivl
	}
	res, err := testbed.RunFleetContext(ctx, f, ff.parallel)
	if err != nil {
		return err
	}
	if ff.timeline != "" {
		if err := writeMergedTimeline(ff.timeline, res.Timelines); err != nil {
			return err
		}
	}
	if ff.lagTimeline != "" {
		if err := writeLagTimeline(ff.lagTimeline, res.Timelines); err != nil {
			return err
		}
	}
	// The scorecard is the canonical byte surface; its tail already
	// carries the merged metrics snapshot, so -metrics is implied here.
	os.Stdout.Write(res.Scorecard())
	lat := res.Latency
	fmt.Printf("latency T_p (ms): mean=%.1f sd=%.1f min=%.1f max=%.1f\n",
		lat.Mean(), lat.StdDev(), lat.Min(), lat.Max())
	return nil
}
