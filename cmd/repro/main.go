// Command repro regenerates every table and figure in the paper's
// evaluation section from the simulated testbed, printing TSV series
// suitable for plotting. Each artefact's independent experiments fan
// out over a worker pool; for a fixed seed the output is byte-identical
// for every -parallel value.
//
// Usage:
//
//	repro [-n messages] [-seed n] [-parallel workers] [-progress every] [-csv dir] <artefact>
//
// where artefact is one of: fig4 fig5 fig6 fig7 fig8 fig9 table1 table2
// ann-accuracy sensitivity throughput latency all. -csv additionally
// writes the throughput and latency figure families as CSV artefacts
// into the given directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"text/tabwriter"
	"time"

	"kafkarel/internal/core"
	"kafkarel/internal/dynconf"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/figures"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/report"
	"kafkarel/internal/sweep"
	"kafkarel/internal/testbed"
	"kafkarel/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	messages := fs.Int("n", 20000, "messages per experiment point")
	seed := fs.Uint64("seed", 1, "random seed")
	quiet := fs.Bool("q", false, "suppress progress output")
	parallel := fs.Int("parallel", 0, "experiment workers (0 = GOMAXPROCS); output is identical for any value")
	progress := fs.Int("progress", 10, "print a progress line every N experiments (0 = quiet)")
	csvDir := fs.String("csv", "", "also write figure-family CSV artefacts into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: repro [-n messages] [-seed n] [-parallel workers] [-progress every] [-csv dir] <fig3|fig4|fig5|fig6|fig7|fig8|fig9|table1|table2|ann-accuracy|sensitivity|throughput|latency|trace|report|all>")
	}
	opts := figures.Options{Messages: *messages, Seed: *seed, Workers: *parallel, Context: ctx}
	// Each artefact gets a fresh progress reporter: its counters are
	// per-batch.
	withProgress := func(o figures.Options, label string) figures.Options {
		if !*quiet && *progress > 0 {
			o.Progress = exprun.NewReporter(os.Stderr, label, *progress).Progress
		}
		return o
	}
	artefacts := map[string]func(figures.Options) error{
		"fig3":         fig3,
		"fig4":         fig4,
		"fig5":         fig5,
		"fig6":         fig6,
		"fig7":         fig7,
		"fig8":         fig8,
		"fig9":         fig9,
		"table1":       table1,
		"table2":       table2,
		"ann-accuracy": annAccuracy,
		"sensitivity":  sensitivity,
		"throughput":   func(o figures.Options) error { return throughput(o, *csvDir) },
		"latency":      func(o figures.Options) error { return latency(o, *csvDir) },
		"trace":        traceRun,
		"report":       reportRun,
	}
	name := fs.Arg(0)
	if name == "all" {
		for _, key := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table1", "throughput", "latency", "ann-accuracy", "sensitivity", "table2"} {
			fmt.Printf("==== %s ====\n", key)
			if err := artefacts[key](withProgress(opts, key)); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			fmt.Println()
		}
		return nil
	}
	fn, ok := artefacts[name]
	if !ok {
		return fmt.Errorf("unknown artefact %q", name)
	}
	return fn(withProgress(opts, name))
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func fig3(figures.Options) error {
	fmt.Println("# Fig. 3: training data collection design (two feature subspaces)")
	normal := sweep.NormalGrid()
	abnormal := sweep.AbnormalGrid()
	w := newTab()
	fmt.Fprintln(w, "subspace\tcondition\teffective features swept\texperiments")
	fmt.Fprintf(w, "normal\tD<200ms, L=0\tsemantics, M, To, delta\t%d\n", len(normal))
	fmt.Fprintf(w, "abnormal\tfaults injected\tsemantics, M, D, L, B\t%d\n", len(abnormal))
	fmt.Fprintf(w, "full cross product (avoided)\t\t\t%d\n", sweep.CrossProduct(append(normal, abnormal...)))
	return w.Flush()
}

func fig4(o figures.Options) error {
	points, err := figures.Fig4(o)
	if err != nil {
		return err
	}
	fmt.Println("# Fig. 4: Pl vs message size M (D=100ms, L=19%, To=1500ms, full load)")
	w := newTab()
	fmt.Fprintln(w, "M_bytes\tsemantics\tPl\tPd")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%s\t%.4f\t%.4f\n", p.MessageSize, producer.Semantics(p.Semantics), p.Pl, p.Pd)
	}
	return w.Flush()
}

func fig5(o figures.Options) error {
	points, err := figures.Fig5(o)
	if err != nil {
		return err
	}
	fmt.Println("# Fig. 5: Pl vs message timeout To (no faults, full load, M=200B)")
	w := newTab()
	fmt.Fprintln(w, "To_ms\tsemantics\tPl")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%s\t%.4f\n", p.Timeout/time.Millisecond, producer.Semantics(p.Semantics), p.Pl)
	}
	return w.Flush()
}

func fig6(o figures.Options) error {
	points, err := figures.Fig6(o)
	if err != nil {
		return err
	}
	fmt.Println("# Fig. 6: Pl vs polling interval δ (To=500ms, no faults, M=200B, at-most-once)")
	w := newTab()
	fmt.Fprintln(w, "delta_ms\tPl")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%.4f\n", p.PollInterval/time.Millisecond, p.Pl)
	}
	return w.Flush()
}

func fig7(o figures.Options) error {
	points, err := figures.Fig7(o)
	if err != nil {
		return err
	}
	fmt.Println("# Fig. 7: Pl vs packet loss L for batch sizes B (M=200B, To=500ms, full load)")
	w := newTab()
	fmt.Fprintln(w, "L\tB\tsemantics\tPl")
	for _, p := range points {
		fmt.Fprintf(w, "%.2f\t%d\t%s\t%.4f\n", p.LossRate, p.BatchSize, producer.Semantics(p.Semantics), p.Pl)
	}
	return w.Flush()
}

func fig8(o figures.Options) error {
	points, err := figures.Fig8(o)
	if err != nil {
		return err
	}
	fmt.Println("# Fig. 8: Pd vs batch size B (at-least-once, M=200B, D=100ms, To=3s)")
	w := newTab()
	fmt.Fprintln(w, "B\tL\tPd\tPl")
	for _, p := range points {
		fmt.Fprintf(w, "%d\t%.2f\t%.4f\t%.4f\n", p.BatchSize, p.LossRate, p.Pd, p.Pl)
	}
	return w.Flush()
}

func fig9(o figures.Options) error {
	series, err := figures.Fig9(o.Seed)
	if err != nil {
		return err
	}
	fmt.Println("# Fig. 9: network trace (Pareto delay, Gilbert-Elliot loss)")
	w := newTab()
	fmt.Fprintln(w, "t_s\tdelay_ms\tloss")
	for _, p := range series {
		fmt.Fprintf(w, "%.0f\t%.1f\t%.3f\n", p.At.Seconds(), p.DelayMs, p.Loss)
	}
	return w.Flush()
}

func table1(o figures.Options) error {
	res, err := figures.Table1(o)
	if err != nil {
		return err
	}
	fmt.Println("# Table I (empirical): message state cases (at-least-once, D=100ms, L=15%, retries on)")
	w := newTab()
	fmt.Fprintln(w, "case\ttransitions\tcount\tshare")
	desc := map[string]string{
		"case1": "I",
		"case2": "II",
		"case3": "II -> tau_r*III",
		"case4": "II -> tau_r*III -> IV",
	}
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%.4f\n", r.Case, desc[r.Case.String()], r.Count, r.Share)
	}
	fmt.Fprintf(w, "case5\tII -> ... -> V -> tau_d*VI\t%d\t%.4f\n",
		res.Case5, float64(res.Case5)/float64(res.Total))
	return w.Flush()
}

func table2(o figures.Options) error {
	fmt.Println("# Table II: overall loss/duplicate rates, static default vs dynamic configuration")
	fmt.Fprintln(os.Stderr, "(full pipeline: per-stream sweep + training + schedule + evaluation; this takes a while)")
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	outcomes, err := dynconf.TableII(ctx, nil, dynconf.Options{
		Messages:      o.Messages,
		Seed:          o.Seed,
		TrainMessages: o.Messages / 8,
		Workers:       o.Workers,
		Progress:      func(s string) { fmt.Fprintln(os.Stderr, s) },
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "stream\tweights\tRl_default\tRl_dynamic\tRd_default\tRd_dynamic\treconfigs")
	for _, oc := range outcomes {
		fmt.Fprintf(w, "%s\t%.3g,%.3g\t%.2f%%\t%.2f%%\t%.2f%%\t%.2f%%\t%d\n",
			oc.Profile.Name, oc.Profile.Weights[0], oc.Profile.Weights[1],
			100*oc.DefaultRl, 100*oc.DynamicRl, 100*oc.DefaultRd, 100*oc.DynamicRd,
			oc.Reconfigurations)
	}
	return w.Flush()
}

func annAccuracy(o figures.Options) error {
	fmt.Println("# Prediction accuracy: predicted vs measured on the held-out split (paper: MAE < 0.02)")
	res, err := figures.Accuracy(o)
	if err != nil {
		return err
	}
	if err := accuracyTable(res.Metrics); err != nil {
		return err
	}
	fmt.Println("\n# held-out overlay samples (first 20): measured vs predicted Pl")
	w := newTab()
	fmt.Fprintln(w, "M\tL\tB\tsemantics\tPl_measured\tPl_predicted")
	for i, p := range res.Pairs {
		if i == 20 {
			break
		}
		fmt.Fprintf(w, "%d\t%.2f\t%d\t%s\t%.4f\t%.4f\n",
			p.X.MessageSize, p.X.LossRate, p.X.BatchSize, producer.Semantics(p.X.Semantics),
			p.MeasuredPl, p.PredictedPl)
	}
	return w.Flush()
}

// accuracyTable prints one row per semantics, in ascending semantics
// order (core.Train accepts no other codes), then the pooled row.
func accuracyTable(metrics core.Metrics) error {
	w := newTab()
	fmt.Fprintln(w, "semantics\ttrain_n\ttest_n\tMAE\tRMSE")
	for sem := features.SemanticsAtMostOnce; sem <= features.SemanticsExactlyOnce; sem++ {
		m, ok := metrics.PerSemantics[sem]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%.4f\t%.4f\n",
			producer.Semantics(sem), m.TrainSamples, m.TestSamples, m.MAE, m.RMSE)
	}
	fmt.Fprintf(w, "pooled\t\t\t%.4f\t%.4f\n", metrics.MAE, metrics.RMSE)
	return w.Flush()
}

// throughput regenerates the throughput figure family (an extension
// beyond the paper's reliability figures): delivered msg/s over the
// batch size on a single producer, and over the per-topic partition
// count on a 32-producer fleet. With a -csv directory the two series
// are additionally written as CSV artefacts (the files CI uploads).
func throughput(o figures.Options, csvDir string) error {
	batch, err := figures.ThroughputVsBatch(o)
	if err != nil {
		return err
	}
	fmt.Println("# Throughput vs batch size B (at-least-once, M=200B, D=10ms, L=2%, full load)")
	w := newTab()
	fmt.Fprintln(w, "B\tthroughput_msg_s\tphi\tPl")
	for _, p := range batch {
		fmt.Fprintf(w, "%d\t%.1f\t%.4f\t%.4f\n", p.BatchSize, p.Throughput, p.BandwidthUtilization, p.Pl)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	parts, err := figures.ThroughputVsPartitions(o)
	if err != nil {
		return err
	}
	fmt.Println("\n# Throughput vs partition count (fleet: 32 producers x 4 topics, keyed routing, B=2)")
	w = newTab()
	fmt.Fprintln(w, "partitions\tthroughput_msg_s\tPl")
	for _, p := range parts {
		fmt.Fprintf(w, "%d\t%.1f\t%.4f\n", p.Partitions, p.Throughput, p.Pl)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if csvDir == "" {
		return nil
	}
	if err := writeCSV(csvDir, "throughput_vs_batch.csv", func(w io.Writer) error {
		return figures.WriteThroughputBatchCSV(w, batch)
	}); err != nil {
		return err
	}
	return writeCSV(csvDir, "throughput_vs_partitions.csv", func(w io.Writer) error {
		return figures.WriteThroughputPartitionsCSV(w, parts)
	})
}

// writeCSV renders one CSV artefact into dir, creating dir on demand,
// and notes the written path on stderr.
func writeCSV(dir, name string, render func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := render(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", name, werr)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// traceRun executes one Fig. 8 configuration with the event tracer
// attached and prints the per-run timeline summary plus the first
// complete Case-5 duplicate chain — the mechanism behind Fig. 8 made
// visible: send → RTO-inflated response → spurious timeout → retry →
// duplicate append.
func traceRun(o figures.Options) error {
	tracer := obs.NewTracer(1 << 20)
	res, err := testbed.Run(testbed.Experiment{
		Features: figures.Fig8Vector(2, 0.15),
		Messages: o.Messages,
		Seed:     o.Seed + 6,
		Tracer:   tracer,
	})
	if err != nil {
		return err
	}
	events := tracer.Events()
	fmt.Println("# Per-run event trace: one Fig. 8 point (B=2, L=0.15, at-least-once)")
	fmt.Printf("# P_l=%.4f P_d=%.4f; %d events (%d buffered), retransmits=%d, RTO max=%v\n",
		res.Pl, res.Pd, tracer.Total(), len(events), res.Metrics.Retransmits, res.Metrics.RTOMax)
	byLayer := map[string]uint64{}
	byType := map[string]uint64{}
	for _, ev := range events {
		byLayer[ev.Layer]++
		byType[ev.Type]++
	}
	w := newTab()
	fmt.Fprintln(w, "layer\tevents")
	for _, layer := range []string{obs.LayerNetem, obs.LayerTransport, obs.LayerProducer, obs.LayerBroker, obs.LayerCluster} {
		fmt.Fprintf(w, "%s\t%d\n", layer, byLayer[layer])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	chains := obs.DuplicateChains(events)
	complete := 0
	for _, c := range chains {
		if obs.IsCompleteDuplicateChain(c) {
			complete++
		}
	}
	fmt.Printf("\n# duplicate chains: %d (%d complete); first complete chain:\n", len(chains), complete)
	w = newTab()
	fmt.Fprintln(w, "t\tlayer\tevent\tbatch\tvalue\taux")
	for _, c := range chains {
		if !obs.IsCompleteDuplicateChain(c) {
			continue
		}
		for _, ev := range c {
			fmt.Fprintf(w, "%v\t%s\t%s\t%d\t%d\t%d\n", ev.At, ev.Layer, ev.Type, ev.Key, ev.Value, ev.Aux)
		}
		break
	}
	return w.Flush()
}

// latency prints the end-to-end latency percentile family and, with a
// -csv directory, writes the percentile and CDF series as artefacts.
func latency(o figures.Options, csvDir string) error {
	points, err := figures.Latency(o)
	if err != nil {
		return err
	}
	fmt.Println("# End-to-end record latency spans (M=200B, D=10ms, B=2, one consumer; per semantics x loss)")
	w := newTab()
	fmt.Fprintln(w, "semantics\tloss\tspan\tcount\tp50\tp95\tp99\tmax")
	for _, p := range points {
		for _, s := range []struct {
			name string
			h    testbed.SpanHist
		}{
			{"enqueue→send", p.Send},
			{"enqueue→ack", p.Ack},
			{"enqueue→delivery", p.Delivery},
			{"commit", p.Commit},
		} {
			if s.h.Total() == 0 {
				continue
			}
			fmt.Fprintf(w, "%s\t%.2f\t%s\t%d\t%v\t%v\t%v\t%v\n",
				producer.Semantics(p.Semantics), p.LossRate, s.name, s.h.Total(),
				s.h.Quantile(0.50), s.h.Quantile(0.95), s.h.Quantile(0.99), s.h.Max)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if csvDir == "" {
		return nil
	}
	if err := writeCSV(csvDir, "latency.csv", func(w io.Writer) error { return figures.WriteLatencyCSV(w, points) }); err != nil {
		return err
	}
	return writeCSV(csvDir, "latency-cdf.csv", func(w io.Writer) error { return figures.WriteLatencyCDFCSV(w, points) })
}

// reportDynamicRun assembles and executes the Table-II-style dynamic
// run the report renders: the social-media stream over the default
// 10-minute trace, reconfigured by a rule-based threshold schedule
// (protective configuration while the forecast segment loses >= 5% of
// packets), with the timeline sampler and event tracer attached. It is
// shared with the acceptance test, which cross-checks the report totals
// against the run's counters.
func reportDynamicRun(messages int, seed uint64) (testbed.Result, []obs.Event, error) {
	profile := workload.SocialMedia
	spec := netem.DefaultTraceSpec()
	trace, err := spec.Generate(seed + 11)
	if err != nil {
		return testbed.Result{}, nil, err
	}
	stream := dynconf.DefaultVector(profile)
	protective := stream
	protective.Semantics = features.SemanticsAtLeastOnce
	protective.BatchSize = 5
	protective.PollInterval = 30 * time.Millisecond
	protective.MessageTimeout = 3 * time.Second
	schedule, err := dynconf.ThresholdSchedule(trace, stream, protective, 30*time.Second, 0.05)
	if err != nil {
		return testbed.Result{}, nil, err
	}
	// Enough messages to keep the source alive across the whole trace
	// (capped by the caller's budget so -n still bounds the run).
	needed := int(testbed.FullLoadRate(profile.MeanSize) * spec.Duration.Seconds() * 1.1)
	if messages > 0 && messages < needed {
		needed = messages
	}
	tracer := obs.NewTracer(1 << 20)
	timeline := obs.NewTimeline(0) // default 10 s sampling
	res, err := testbed.Run(testbed.Experiment{
		Features:   stream,
		Messages:   needed,
		Seed:       seed + 12,
		Trace:      trace,
		MaxSimTime: spec.Duration,
		Schedule:   schedule,
		Tracer:     tracer,
		Timeline:   timeline,
	})
	if err != nil {
		return testbed.Result{}, nil, err
	}
	return res, tracer.Events(), nil
}

// reportRun renders the self-contained run report for one dynamic run:
// per-phase reliability, timeline sparklines with config-switch
// markers, and the first complete duplicate chain.
func reportRun(o figures.Options) error {
	res, events, err := reportDynamicRun(o.Messages, o.Seed)
	if err != nil {
		return err
	}
	rep, err := report.Build(res, events, report.Options{
		Title: "Run report: social-media stream, dynamic configuration over the default 10-minute trace",
	})
	if err != nil {
		return err
	}
	if err := rep.Verify(); err != nil {
		return err
	}
	return rep.Render(os.Stdout)
}

func sensitivity(o figures.Options) error {
	fmt.Println("# Sec. III-D sensitivity analysis: ±50% perturbation at a faulted operating point")
	base := features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        50,
		LossRate:       0.18,
		Semantics:      features.SemanticsAtMostOnce,
		BatchSize:      2,
		PollInterval:   0,
		MessageTimeout: 700 * time.Millisecond,
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	results, err := sweep.SensitivityContext(ctx, base, sweep.SensitivityOptions{
		Messages: o.Messages / 4,
		Seed:     o.Seed,
		Workers:  o.Workers,
	})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "parameter\tPl_-50%\tPl_base\tPl_+50%\timpact\tselected")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.4f\t%.4f\t%v\n",
			r.Parameter, r.LowPl, r.BasePl, r.HighPl, r.Impact, r.Selected)
	}
	return w.Flush()
}
