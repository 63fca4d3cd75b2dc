package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"kafkarel/internal/chaos/campaign"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/figures"
	"kafkarel/internal/testbed"
)

// sizes are the workload sizes. fullSizes gives one repeat of ≈0.85 s on
// the host the benchmark was sized on (2 cores, go1.24) when that host
// is quiet, so that the 20 s the contract measures for hold about 20
// repeats. The golden fingerprints
// in golden.json are pinned to fullSizes: changing one is a benchmark
// change, not a tuning knob. (Tests run the same code on smaller sizes.)
type sizes struct {
	fig7Messages   int // per experiment point
	ingestMessages int
	fleetMessages  int // fleet-wide, over 32 producers
	chaosTrials    int // exactly-once+E2E and txn campaigns, each
	chaosCoop      int // a coop trial costs ≈10× the others
}

var fullSizes = sizes{
	fig7Messages:   4000,
	ingestMessages: 300000,
	fleetMessages:  44800,
	chaosTrials:    100,
	chaosCoop:      10,
}

// chaosMessages is the campaign's default messages per trial, spelled
// out for the checks.
const chaosMessages = 300

// runOpts are the two things a workload run can vary besides its seed.
type runOpts struct {
	// workers is the exprun pool size; 1 for every headline pass.
	workers int
	// disableMetrics switches the per-run obs registry off. Only
	// ingest_steady and fleet_fanout expose it (obsToggle).
	disableMetrics bool
}

// outcome is what one run of a workload yields: how many records it
// simulated, how many simulation runs (operations) it made and how many
// of them failed a check, the fingerprint of its canonical output, and
// the layer counts its public result exposes.
type outcome struct {
	records     uint64
	ops, failed int
	failures    []string
	fingerprint string
	counts      counts
}

// counts holds raw per-run totals read from a workload's public result.
// metrics is nil where the result carries no MetricsSnapshot (chaos_mix:
// a campaign.Scorecard has rows only), and the traced pass then reports
// the metrics derived from it as n/a.
type counts struct {
	metrics *testbed.MetricsSnapshot
	// runs is the number of testbed rigs the run built and tore down.
	runs int
	// Filled from scorecard rows (chaos_mix) or fleet topics.
	rebalances, redelivered, consumed uint64
	lost, duplicated                  uint64
	faults, trials, violations        int
	// verified reports whether a chaos verifier ran on the run's evidence
	// (violations is meaningful only then).
	verified bool
}

// fail records one failed operation; the first few reasons are kept for
// the report.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	why  string
	// obsToggle reports whether run honours runOpts.disableMetrics.
	obsToggle bool
	// parallel reports whether run honours runOpts.workers.
	parallel bool
	run      func(seed uint64, o runOpts) (outcome, error)
	// detail, when set, replaces run in the traced pass's counting run:
	// fig7_sweep's public entry point returns P_l per point only.
	detail func(seed uint64) (outcome, error)
}

// workloads returns the four workloads at these sizes.
func (z sizes) workloads() []workload {
	return []workload{
		{
			name:     "fig7_sweep",
			why:      "88 short producer-only experiments over L x B x semantics, the paper's sweep shape: per-run rig build/teardown and the lossy retransmit/timeout paths",
			parallel: true,
			run:      z.runFig7,
			detail:   z.detailFig7,
		},
		{
			name:      "ingest_steady",
			why:       "one rig, 300000 records of clean steady-state write path (des heap, netem, wire, broker/storage append, replication); rig set-up is invisible here",
			obsToggle: true,
			run:       z.runIngest,
		},
		{
			name:      "fleet_fanout",
			why:       "32 producers over 8 topics with 2 consumer groups each: reads beside writes (consumer poll, broker fetch, storage read, commits) under 2% loss",
			obsToggle: true,
			parallel:  true,
			run:       z.runFleet,
		},
		{
			name:     "chaos_mix",
			why:      "exactly-once+E2E, txn and coop chaos campaigns: control-plane and fault paths (rebalance, two-phase commit, crash catch-up, four verifiers); the zero-violation gate",
			parallel: true,
			run:      z.runChaos,
		},
	}
}

var workloads = fullSizes.workloads()

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fingerprint(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// --- fig7_sweep -------------------------------------------------------------

func (z sizes) runFig7(seed uint64, o runOpts) (outcome, error) {
	points, err := figures.Fig7(figures.Options{Messages: z.fig7Messages, Seed: seed, Workers: o.workers})
	if err != nil {
		return outcome{}, err
	}
	out := outcome{ops: len(points), records: uint64(len(points) * z.fig7Messages)}
	out.counts.runs = len(points)
	var csv bytes.Buffer
	for _, p := range points {
		fmt.Fprintf(&csv, "%.2f,%d,%d,%.6f\n", p.LossRate, p.BatchSize, p.Semantics, p.Pl)
		if !(p.Pl >= 0 && p.Pl <= 1) {
			out.fail("fig7 L=%v B=%d sem=%d: Pl=%v outside [0,1]", p.LossRate, p.BatchSize, p.Semantics, p.Pl)
		}
	}
	if want := len(figures.Fig7Batches) * len(figures.Fig7Losses) * 2; len(points) != want {
		out.fail("fig7: %d points, want %d", len(points), want)
	}
	out.fingerprint = fingerprint(csv.Bytes())
	return out, nil
}

// fig7SeedStride mirrors the figures package's per-experiment seed
// derivation so the counting run simulates the points Fig7 does.
const fig7SeedStride = 2654435761

// detailFig7 runs Fig. 7's experiments one by one through testbed.Run,
// which returns the full Result (conservation, completion, layer
// counters) that figures.Fig7 folds down to P_l.
func (z sizes) detailFig7(seed uint64) (outcome, error) {
	var out outcome
	var sum testbed.MetricsSnapshot
	seedAt := exprun.LinearSeeds(seed, fig7SeedStride)
	idx := 300
	for _, b := range figures.Fig7Batches {
		for _, l := range figures.Fig7Losses {
			for _, sem := range []int{features.SemanticsAtMostOnce, features.SemanticsAtLeastOnce} {
				res, err := testbed.Run(testbed.Experiment{
					Features: figures.Fig7Vector(l, b, sem),
					Messages: z.fig7Messages,
					Seed:     seedAt(idx),
					// figures.maxSimTime for this message count.
					MaxSimTime: max(time.Duration(z.fig7Messages)*time.Second, 30*time.Minute),
				})
				idx++
				if err != nil {
					return outcome{}, fmt.Errorf("fig7 L=%v B=%d sem=%d: %w", l, b, sem, err)
				}
				out.ops++
				out.records += res.Acquired
				out.counts.lost += res.Report.NLost
				out.counts.duplicated += res.Report.NDuplicated
				sum.Merge(res.Metrics)
				for _, why := range checkResult(res, z.fig7Messages) {
					out.fail("fig7 L=%v B=%d sem=%d: %s", l, b, sem, why)
				}
			}
		}
	}
	out.counts.metrics = &sum
	out.counts.runs = out.ops
	return out, nil
}

// checkResult is the per-run correctness check on a single-rig result:
// the source drained, and every acquired message is accounted for as
// delivered or lost exactly once.
func checkResult(r testbed.Result, messages int) []string {
	var bad []string
	if !r.Completed {
		bad = append(bad, "run did not complete")
	}
	if r.Acquired != uint64(messages) {
		bad = append(bad, fmt.Sprintf("acquired %d, want %d", r.Acquired, messages))
	}
	if r.Report.SourceCount != r.Acquired || r.Report.Distinct+r.Report.NLost != r.Acquired {
		bad = append(bad, fmt.Sprintf("conservation broken: delivered %d + lost %d != acquired %d (source %d)",
			r.Report.Distinct, r.Report.NLost, r.Acquired, r.Report.SourceCount))
	}
	if r.Report.Foreign != 0 {
		bad = append(bad, fmt.Sprintf("%d foreign records in the log", r.Report.Foreign))
	}
	return bad
}

// --- ingest_steady ----------------------------------------------------------

func (z sizes) ingestExperiment(seed uint64, o runOpts) testbed.Experiment {
	return testbed.Experiment{
		Features: features.Vector{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        1,
			Semantics:      features.SemanticsAtLeastOnce,
			BatchSize:      10,
			MessageTimeout: 1500 * time.Millisecond,
		},
		Messages:          z.ingestMessages,
		Seed:              seed,
		Partitions:        4,
		ReplicationFactor: 3,
		DisableMetrics:    o.disableMetrics,
	}
}

func (z sizes) runIngest(seed uint64, o runOpts) (outcome, error) {
	res, err := testbed.Run(z.ingestExperiment(seed, o))
	if err != nil {
		return outcome{}, err
	}
	out := outcome{ops: 1, records: res.Acquired}
	for _, why := range checkIngest(res, z.ingestMessages) {
		out.fail("ingest: %s", why)
	}
	var canon bytes.Buffer
	canon.Write(res.Metrics.Encode())
	fmt.Fprintf(&canon, "report %+v\n", res.Report)
	out.fingerprint = fingerprint(canon.Bytes())
	m := res.Metrics
	out.counts = counts{metrics: &m, runs: 1, lost: res.Report.NLost, duplicated: res.Report.NDuplicated}
	return out, nil
}

// checkIngest adds the steady-state assertions to checkResult: with no
// injected loss the transport never retransmits and nothing is
// duplicated. (P_l stays ≈0.65 % from full-load accumulator timeouts;
// that is the model, not a fault.)
func checkIngest(r testbed.Result, messages int) []string {
	bad := checkResult(r, messages)
	if r.Metrics.Retransmits != 0 {
		bad = append(bad, fmt.Sprintf("%d retransmits on a loss-free path", r.Metrics.Retransmits))
	}
	if r.Pd != 0 {
		bad = append(bad, fmt.Sprintf("Pd = %v on a loss-free path", r.Pd))
	}
	return bad
}

// --- fleet_fanout -----------------------------------------------------------

func (z sizes) fleetConfig(seed uint64, o runOpts) testbed.Fleet {
	return testbed.Fleet{
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
		Messages:          z.fleetMessages,
		Seed:              seed,
		ConsumersPerTopic: 2,
		Groups:            2,
		DisableMetrics:    o.disableMetrics,
	}
}

func (z sizes) runFleet(seed uint64, o runOpts) (outcome, error) {
	res, err := testbed.RunFleetContext(context.Background(), z.fleetConfig(seed, o), o.workers)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{ops: len(res.Topics), records: res.Acquired}
	for _, why := range checkFleet(res, z.fleetMessages) {
		out.fail("fleet: %s", why)
	}
	out.fingerprint = fingerprint(res.Scorecard())
	m := res.Metrics
	out.counts = counts{metrics: &m, runs: len(res.Topics), lost: res.Report.NLost, duplicated: res.Report.NDuplicated, verified: true}
	for _, tr := range res.Topics {
		out.counts.rebalances += tr.Rebalances
		out.counts.violations += tr.E2EViolations + tr.CoopViolations
	}
	return out, nil
}

// checkFleet returns one reason per failed shard check (a shard is one
// operation), plus the fleet-wide acquisition check.
func checkFleet(r testbed.FleetResult, messages int) []string {
	var bad []string
	if r.Acquired != uint64(messages) {
		bad = append(bad, fmt.Sprintf("acquired %d, want %d", r.Acquired, messages))
	}
	for _, tr := range r.Topics {
		switch {
		case !tr.Completed:
			bad = append(bad, tr.Topic+": shard did not complete")
		case tr.Report.SourceCount != tr.Acquired || tr.Report.Distinct+tr.Report.NLost != tr.Acquired:
			bad = append(bad, fmt.Sprintf("%s: conservation broken: delivered %d + lost %d != acquired %d",
				tr.Topic, tr.Report.Distinct, tr.Report.NLost, tr.Acquired))
		case !tr.GroupDrained:
			bad = append(bad, tr.Topic+": consumer groups did not drain")
		case tr.E2EViolations+tr.CoopViolations != 0:
			bad = append(bad, fmt.Sprintf("%s: %d verifier violations", tr.Topic, tr.E2EViolations+tr.CoopViolations))
		}
	}
	return bad
}

// --- chaos_mix --------------------------------------------------------------

// chaosCampaigns are the three thirds of chaos_mix; trial counts are
// chosen so each third costs about the same host time.
func (z sizes) chaosCampaigns(seed uint64, workers int) []campaign.Config {
	return []campaign.Config{
		{Mode: campaign.ModeExactlyOnce, E2E: true, Trials: z.chaosTrials, Seed: seed, Messages: chaosMessages, Workers: workers},
		{Mode: campaign.ModeTxn, Trials: z.chaosTrials, Seed: seed, Messages: chaosMessages, Workers: workers},
		{Mode: campaign.ModeCoop, Trials: z.chaosCoop, Seed: seed, Messages: chaosMessages, Workers: workers},
	}
}

func (z sizes) runChaos(seed uint64, o runOpts) (outcome, error) {
	var out outcome
	out.counts.verified = true
	var canon bytes.Buffer
	for _, cfg := range z.chaosCampaigns(seed, o.workers) {
		sc, err := campaign.Run(context.Background(), cfg)
		if err != nil {
			return outcome{}, err
		}
		if err := sc.WriteJSON(&canon); err != nil {
			return outcome{}, err
		}
		out.ops += len(sc.Rows)
		for _, why := range checkScorecard(sc, cfg.Trials) {
			out.fail("chaos %s: %s", cfg.Mode, why)
		}
		for _, row := range sc.Rows {
			out.records += row.Acquired
			out.counts.runs++
			if row.Mode == campaign.ModeCoop {
				out.counts.runs++ // cooperative run plus its eager control
			}
			out.counts.trials++
			out.counts.faults += len(row.Faults)
			out.counts.violations += len(row.Violations)
			out.counts.rebalances += row.Rebalances
			out.counts.redelivered += row.Redelivered
			out.counts.consumed += uint64(row.Consumed)
			out.counts.lost += row.Lost
			out.counts.duplicated += row.Duplicated
		}
	}
	out.fingerprint = fingerprint(canon.Bytes())
	return out, nil
}

// checkScorecard returns one reason per failed trial: a trial fails when
// it did not complete, did not take in its whole source, broke
// conservation, or tripped a verifier.
func checkScorecard(sc campaign.Scorecard, trials int) []string {
	var bad []string
	if len(sc.Rows) != trials {
		bad = append(bad, fmt.Sprintf("%d rows, want %d", len(sc.Rows), trials))
	}
	if sc.Failed > 0 {
		bad = append(bad, fmt.Sprintf("scorecard reports %d failed trials", sc.Failed))
	}
	for i, row := range sc.Rows {
		accounted := row.Delivered + row.Lost
		switch {
		case !row.Completed:
			bad = append(bad, fmt.Sprintf("trial %d (plan %d): did not complete", i, row.PlanSeed))
		case row.Acquired != chaosMessages:
			bad = append(bad, fmt.Sprintf("trial %d (plan %d): acquired %d, want %d", i, row.PlanSeed, row.Acquired, chaosMessages))
		case accounted != row.Acquired:
			bad = append(bad, fmt.Sprintf("trial %d (plan %d): conservation broken: delivered %d + lost %d != acquired %d",
				i, row.PlanSeed, row.Delivered, row.Lost, row.Acquired))
		case !row.Pass || len(row.Violations) > 0:
			bad = append(bad, fmt.Sprintf("trial %d (plan %d): violations %v", i, row.PlanSeed, row.Violations))
		}
	}
	return bad
}
