// Package campaign runs randomised chaos campaigns: N trials, each a
// full testbed experiment under a generated fault plan, executed in
// parallel on the exprun pool and fed through the chaos invariant
// checker. The output is a scorecard — one row per trial with the
// seeds, fault list, reliability metrics, classified anomalies and
// invariant violations — reproducible byte-for-byte from (seed, config)
// at any worker count, and any single row from its recorded
// (plan seed, workload seed) pair alone.
package campaign

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"kafkarel/internal/broker"
	"kafkarel/internal/chaos"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/testbed"
	"kafkarel/internal/wire"
)

// Modes. ModeExactlyOnce runs the idempotent producer with acks=all on
// a replication-factor-3 topic: every anomaly is an invariant violation.
// ModeAtLeastOnce runs acks=1 on a replication-factor-1 topic with
// unclean restarts: acked-data loss is the *expected* Kafka behaviour
// there, and the checker classifies it rather than flagging it.
// ModeTxn runs the transactional consume-process-produce pipeline
// (replication factor 3) under processor crashes, zombie incarnations
// and broker outages, verified by the transactional invariant checker
// (chaos.VerifyTxn): zombie fencing, commit atomicity, exactly-once
// delivery at read_committed.
// ModeCoop runs a multi-group consumer fan-out (replication factor 3,
// offsets at 3) under a generated churn plan of member crashes and
// broker outages — twice per trial, once cooperative (KIP-429) and
// once eager on the same (plan, workload) — and verifies the
// cooperative run with chaos.VerifyCoop + chaos.VerifyE2E per group.
// The eager run is the control: its redelivery and paused-partition
// totals sit next to the cooperative run's in the row.
const (
	ModeExactlyOnce = "exactly-once"
	ModeAtLeastOnce = "at-least-once"
	ModeTxn         = "txn"
	ModeCoop        = "coop"
)

// Config parameterises one campaign.
type Config struct {
	// Mode is ModeExactlyOnce (default) or ModeAtLeastOnce.
	Mode string
	// Trials is the number of generated fault plans (default 50).
	Trials int
	// Seed derives every trial's (plan seed, workload seed) pair.
	Seed uint64
	// Messages per trial (default 300).
	Messages int
	// MaxFaults per generated plan (default 5).
	MaxFaults int
	// Horizon is the fault-injection window (default 2 s).
	Horizon time.Duration
	// FlushInterval is the brokers' fsync cadence (default 50 ms): the
	// unclean-restart loss window.
	FlushInterval time.Duration
	// E2E extends each trial with a consumer group run through the
	// broker-side coordinator: ConsumerMembers members poll and commit
	// while the faults fire, generated plans add consumer crash/restart
	// faults, and the end-to-end checker (chaos.VerifyE2E) verifies the
	// producer → log → group → committed-offset chain on top of the
	// producer/broker invariants. The coordinator's offsets topic runs
	// at the mode's replication factor, so at-least-once campaigns
	// exercise the lost-committed-offset window and exactly-once
	// campaigns must never see it.
	E2E bool
	// ConsumerMembers is the group size under E2E (default 2) and per
	// group under ModeCoop (default 6 — cooperative rebalancing's pause
	// advantage scales with the members-per-moved-share ratio, so the
	// campaign measures it at a group size where the protocol is meant
	// to live).
	ConsumerMembers int
	// Groups is the ModeCoop consumer-group fan-out (default 2).
	Groups int
	// Isolation selects the ModeTxn consumer isolation: "" or
	// "read_committed" (default, every residue is checked), or
	// "read_uncommitted" (aborted residue in the consumer view is
	// classified as configuration-expected, not flagged).
	Isolation string
	// Workers bounds the parallel trial pool (<= 0: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives (done, total) after each trial.
	Progress func(done, total int)

	// maxInFlight is the producer pipelining depth (0 means 1). The
	// ordering and duplicate-accounting invariants only apply at 1; the
	// ack/loss/conservation invariants hold at any depth. Only the
	// pipelined regression campaign in this package's tests raises it.
	maxInFlight int
}

func (c Config) withDefaults() (Config, error) {
	if c.Mode == "" {
		c.Mode = ModeExactlyOnce
	}
	if c.Mode != ModeExactlyOnce && c.Mode != ModeAtLeastOnce && c.Mode != ModeTxn && c.Mode != ModeCoop {
		return c, fmt.Errorf("campaign: unknown mode %q", c.Mode)
	}
	switch c.Isolation {
	case "", "read_committed", "read_uncommitted":
	default:
		return c, fmt.Errorf("campaign: unknown isolation %q", c.Isolation)
	}
	if c.Trials <= 0 {
		c.Trials = 50
	}
	if c.Messages <= 0 {
		c.Messages = 300
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 5
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.E2E && c.ConsumerMembers <= 0 {
		c.ConsumerMembers = 2
	}
	if c.Mode == ModeCoop {
		if c.ConsumerMembers <= 0 {
			c.ConsumerMembers = 6
		}
		if c.Groups <= 0 {
			c.Groups = 2
		}
	}
	return c, nil
}

// Row is one trial's scorecard entry. It carries everything needed to
// reproduce the trial (mode, seeds, knobs are implied by mode) and the
// verdict; it deliberately excludes the trial index and any wall-clock
// time, so a replayed row is byte-identical to the campaign's.
type Row struct {
	Mode         string   `json:"mode"`
	PlanSeed     uint64   `json:"plan_seed"`
	WorkloadSeed uint64   `json:"workload_seed"`
	Faults       []string `json:"faults"`
	Completed    bool     `json:"completed"`
	Acquired     uint64   `json:"acquired"`
	Delivered    uint64   `json:"delivered"`
	Lost         uint64   `json:"lost"`
	Duplicated   uint64   `json:"duplicated"`
	Pl           float64  `json:"pl"`
	Pd           float64  `json:"pd"`
	Truncated    uint64   `json:"records_truncated"`
	Unclean      uint64   `json:"unclean_restarts"`
	// E2E-mode fields: what the consumer group saw during the trial.
	Consumed          int64  `json:"consumed,omitempty"`
	Redelivered       uint64 `json:"redelivered,omitempty"`
	Rebalances        uint64 `json:"rebalances,omitempty"`
	Expirations       uint64 `json:"expirations,omitempty"`
	OffsetRegressions int    `json:"offset_regressions,omitempty"`
	Drained           bool   `json:"drained,omitempty"`
	// Coop-mode fields: the cooperative run's totals live in the E2E
	// fields above; these carry its paused/fan-out accounting and the
	// eager control run of the same (plan, workload) for comparison.
	Groups           int      `json:"groups,omitempty"`
	PausedNs         uint64   `json:"paused_ns,omitempty"`
	CoopFollowUps    uint64   `json:"coop_followups,omitempty"`
	GroupRebalances  []uint64 `json:"group_rebalances,omitempty"`
	GroupExpirations []uint64 `json:"group_expirations,omitempty"`
	EagerRedelivered uint64   `json:"eager_redelivered,omitempty"`
	EagerPausedNs    uint64   `json:"eager_paused_ns,omitempty"`
	EagerRebalances  uint64   `json:"eager_rebalances,omitempty"`
	// Txn-mode fields: transactional attempt and coordinator activity.
	Isolation      string   `json:"isolation,omitempty"`
	TxnAttempts    int      `json:"txn_attempts,omitempty"`
	TxnsCommitted  uint64   `json:"txns_committed,omitempty"`
	TxnsAborted    uint64   `json:"txns_aborted,omitempty"`
	TimeoutAborts  uint64   `json:"timeout_aborts,omitempty"`
	FencedAttempts int      `json:"fenced_attempts,omitempty"`
	Incarnations   []int    `json:"incarnations,omitempty"`
	Classified     []string `json:"classified,omitempty"`
	Violations     []string `json:"violations,omitempty"`
	Pass           bool     `json:"pass"`
}

// Scorecard is a campaign's full result.
type Scorecard struct {
	Mode      string `json:"mode"`
	Trials    int    `json:"trials"`
	Seed      uint64 `json:"seed"`
	Failed    int    `json:"failed"`     // trials with invariant violations
	Flagged   int    `json:"flagged"`    // trials with classified anomalies
	AckedLost int    `json:"acked_lost"` // trials that lost acknowledged records (classified)
	// OffsetRegressed counts trials whose offsets log lost a committed
	// watermark across an unclean restart (E2E mode only).
	OffsetRegressed int `json:"offset_regressed,omitempty"`
	// Coop-mode totals: the cooperative runs' redelivery and
	// paused-partition sums next to their eager controls'.
	CoopRedelivered  uint64 `json:"coop_redelivered,omitempty"`
	EagerRedelivered uint64 `json:"eager_redelivered,omitempty"`
	CoopPausedNs     uint64 `json:"coop_paused_ns,omitempty"`
	EagerPausedNs    uint64 `json:"eager_paused_ns,omitempty"`
	Rows             []Row  `json:"rows"`
}

// WriteJSON renders the scorecard as indented JSON.
func (s Scorecard) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Run executes the campaign: Trials generated plans, run in parallel,
// each verified. Trial i's plan seed and workload seed are mixed from
// Config.Seed and the index, never from scheduling order, so the
// scorecard is identical for every worker count.
func Run(ctx context.Context, cfg Config) (Scorecard, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Scorecard{}, err
	}
	seeds := exprun.MixedSeeds(cfg.Seed)
	idx := make([]int, cfg.Trials)
	for i := range idx {
		idx[i] = i
	}
	rows, err := exprun.Map(ctx, idx, func(ctx context.Context, i int, _ int) (Row, error) {
		return runTrial(ctx, cfg, seeds(2*i), seeds(2*i+1))
	}, exprun.Options{Workers: cfg.Workers, Progress: cfg.Progress})
	if err != nil {
		return Scorecard{}, err
	}
	sc := Scorecard{Mode: cfg.Mode, Trials: cfg.Trials, Seed: cfg.Seed, Rows: rows}
	for _, r := range rows {
		if !r.Pass {
			sc.Failed++
		}
		if len(r.Classified) > 0 {
			sc.Flagged++
		}
		for _, c := range r.Classified {
			if strings.Contains(c, "acked records lost") {
				sc.AckedLost++
				break
			}
		}
		if r.OffsetRegressions > 0 {
			sc.OffsetRegressed++
		}
		if cfg.Mode == ModeCoop {
			sc.CoopRedelivered += r.Redelivered
			sc.EagerRedelivered += r.EagerRedelivered
			sc.CoopPausedNs += r.PausedNs
			sc.EagerPausedNs += r.EagerPausedNs
		}
	}
	return sc, nil
}

// RunTrial runs a single campaign trial from its recorded seeds — the
// reproduction path for a scorecard row. The returned row is
// byte-identical to the campaign's row for the same (config, seeds).
func RunTrial(cfg Config, planSeed, workloadSeed uint64) (Row, error) {
	return runTrial(context.Background(), cfg, planSeed, workloadSeed)
}

// trialExperiment is the testbed run every delivery-mode trial is a
// variation of: a small-message stream over a 2 ms path, a producer
// with tight retry plumbing so faults resolve inside the horizon, full
// evidence capture, and the generated plan.
func trialExperiment(cfg Config, plan chaos.Plan, workloadSeed uint64, semantics, partitions, rf int) testbed.Experiment {
	return testbed.Experiment{
		Features: features.Vector{
			MessageSize:    100,
			DelayMs:        2,
			Semantics:      semantics,
			BatchSize:      2,
			PollInterval:   5 * time.Millisecond,
			MessageTimeout: 2 * time.Second,
		},
		Messages:            cfg.Messages,
		Seed:                workloadSeed,
		Partitions:          partitions,
		MaxSimTime:          cfg.Horizon + 10*time.Second,
		FaultPlan:           plan,
		ReplicationFactor:   rf,
		BrokerFlushInterval: cfg.FlushInterval,
		CaptureEvidence:     true,
		MaxInFlight:         max(cfg.maxInFlight, 1),
		MaxRetries:          8,
		RequestTimeout:      250 * time.Millisecond,
		RetryBackoff:        20 * time.Millisecond,
		RetryBackoffMax:     200 * time.Millisecond,
		QueueLimit:          64,
	}
}

// newRow starts a trial's row with what every mode reports the same
// way: the replay seeds, the plan's faults, the brokers' truncation and
// unclean-restart sums, and the verdict.
func newRow(cfg Config, planSeed, workloadSeed uint64, plan chaos.Plan, brokers []broker.Stats, verdict chaos.Verdict) Row {
	row := Row{
		Mode:         cfg.Mode,
		PlanSeed:     planSeed,
		WorkloadSeed: workloadSeed,
		Classified:   verdict.Classified,
		Violations:   verdict.Violations,
		Pass:         verdict.OK(),
	}
	for _, f := range plan.Faults {
		row.Faults = append(row.Faults, f.String())
	}
	for _, st := range brokers {
		row.Truncated += st.RecordsTruncated
		row.Unclean += st.UncleanCrashes
	}
	return row
}

// delivery adds a testbed run's producer- and log-side accounting.
func (row *Row) delivery(res testbed.Result) {
	row.Completed = res.Completed
	row.Acquired = res.Acquired
	row.Delivered = res.Producer.Delivered
	row.Lost = res.Producer.Lost
	row.Duplicated = res.Report.NDuplicated
	row.Pl = res.Pl
	row.Pd = res.Pd
	row.OffsetRegressions = len(res.OffsetRegressions)
}

// groups adds what a run's consumer groups saw, summed over the groups.
func (row *Row) groups(runs []testbed.GroupRun) {
	row.Drained = len(runs) > 0
	for _, gr := range runs {
		for _, keys := range gr.ConsumedKeys {
			row.Consumed += int64(len(keys))
		}
		row.Redelivered += gr.Evidence.Redelivered
		row.Rebalances += gr.Evidence.Rebalances
		row.Expirations += gr.Stats.SessionExpirations
		row.Drained = row.Drained && gr.Evidence.Drained
	}
}

// runTrial is RunTrial with a task context, so campaign workers reuse
// their simulator across trials (see testbed.RunCtx).
func runTrial(ctx context.Context, cfg Config, planSeed, workloadSeed uint64) (Row, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Row{}, err
	}
	switch cfg.Mode {
	case ModeTxn:
		return runTxnTrial(ctx, cfg, planSeed, workloadSeed)
	case ModeCoop:
		return runCoopTrial(ctx, cfg, planSeed, workloadSeed)
	}
	sem, semCode, rf := producer.ExactlyOnce, features.SemanticsExactlyOnce, 3
	if cfg.Mode == ModeAtLeastOnce {
		sem, semCode, rf = producer.AtLeastOnce, features.SemanticsAtLeastOnce, 1
	}
	gen := chaos.GenConfig{
		Brokers:   3,
		Semantics: sem,
		Horizon:   cfg.Horizon,
		MaxFaults: cfg.MaxFaults,
		Unclean:   true,
	}
	if cfg.E2E {
		gen.ConsumerMembers = cfg.ConsumerMembers
	}
	plan := chaos.GeneratePlan(planSeed, gen)
	e := trialExperiment(cfg, plan, workloadSeed, semCode, 2, rf)
	e.Timeline = obs.NewTimeline(100 * time.Millisecond)
	if cfg.E2E {
		e.Consumers = cfg.ConsumerMembers
		e.OffsetsReplication = rf
	}
	res, err := testbed.RunCtx(ctx, e)
	if err != nil {
		return Row{}, fmt.Errorf("campaign: trial (plan %d, workload %d): %w", planSeed, workloadSeed, err)
	}
	verdict := chaos.Verify(chaos.TrialInput{
		Semantics:   sem,
		MaxInFlight: max(cfg.maxInFlight, 1),
		Replication: rf,
		Plan:        plan,
		Completed:   res.Completed,
		Acquired:    res.Acquired,
		Counts:      res.Producer,
		Outcomes:    res.Outcomes,
		Consumed:    res.ConsumedKeys,
		Report:      res.Report,
		Brokers:     res.BrokerStats,
		Timeline:    res.Timeline,
		PktsLost:    res.Metrics.PacketsLostRandom + res.Metrics.PacketsLostOverflow,
		Retransmits: res.Metrics.Retransmits,
	})
	if cfg.E2E {
		in, _ := res.GroupRuns[0].VerifierInputs(sem, rf, plan, res.OffsetRegressions)
		in.Acked = chaos.AckedTally(res.Outcomes)
		verdict.Merge(chaos.VerifyE2E(in))
	}
	row := newRow(cfg, planSeed, workloadSeed, plan, res.BrokerStats, verdict)
	row.delivery(res)
	row.groups(res.GroupRuns)
	return row, nil
}

// runCoopTrial is one ModeCoop trial: the same generated churn plan and
// workload run twice — cooperative, then eager — over a Groups-wide
// consumer fan-out on a replication-factor-3 cluster with offsets at 3.
// The cooperative run carries the verdict (chaos.VerifyCoop and
// chaos.VerifyE2E per group); the eager run is the measured control.
func runCoopTrial(ctx context.Context, cfg Config, planSeed, workloadSeed uint64) (Row, error) {
	plan := chaos.GenerateCoopPlan(planSeed, chaos.CoopGenConfig{
		Brokers:         3,
		Groups:          cfg.Groups,
		MembersPerGroup: cfg.ConsumerMembers,
		Horizon:         cfg.Horizon,
		MaxFaults:       cfg.MaxFaults,
	})
	e := trialExperiment(cfg, plan, workloadSeed, features.SemanticsAtLeastOnce, 12, 3)
	e.OffsetsReplication = 3
	e.MinISR = 2
	e.Consumers = cfg.ConsumerMembers
	e.Groups = cfg.Groups
	e.Cooperative = true
	coopRes, err := testbed.RunCtx(ctx, e)
	if err != nil {
		return Row{}, fmt.Errorf("campaign: coop trial (plan %d, workload %d): %w", planSeed, workloadSeed, err)
	}
	e.Cooperative = false
	eagerRes, err := testbed.RunCtx(ctx, e)
	if err != nil {
		return Row{}, fmt.Errorf("campaign: coop trial eager control (plan %d, workload %d): %w", planSeed, workloadSeed, err)
	}

	var verdict chaos.Verdict
	for _, gr := range coopRes.GroupRuns {
		e2e, coop := gr.VerifierInputs(producer.AtLeastOnce, 3, plan, coopRes.OffsetRegressions)
		verdict.Merge(chaos.VerifyE2E(e2e))
		verdict.Merge(chaos.VerifyCoop(coop))
	}
	// The eager control still has to deliver end-to-end — a control that
	// breaks delivery invariants is not a usable baseline.
	for _, gr := range eagerRes.GroupRuns {
		e2e, _ := gr.VerifierInputs(producer.AtLeastOnce, 3, plan, eagerRes.OffsetRegressions)
		v := chaos.VerifyE2E(e2e)
		for _, s := range v.Violations {
			verdict.Violations = append(verdict.Violations, "eager control: "+s)
		}
		for _, s := range v.Classified {
			verdict.Classified = append(verdict.Classified, "eager control: "+s)
		}
	}

	row := newRow(cfg, planSeed, workloadSeed, plan, coopRes.BrokerStats, verdict)
	row.delivery(coopRes)
	row.groups(coopRes.GroupRuns)
	row.Groups = cfg.Groups
	for _, gr := range coopRes.GroupRuns {
		row.PausedNs += gr.Evidence.PausedNs
		row.CoopFollowUps += gr.Stats.CoopFollowUps
		row.GroupRebalances = append(row.GroupRebalances, gr.Evidence.Rebalances)
		row.GroupExpirations = append(row.GroupExpirations, gr.Stats.SessionExpirations)
	}
	for _, gr := range eagerRes.GroupRuns {
		row.EagerRedelivered += gr.Evidence.Redelivered
		row.EagerPausedNs += gr.Evidence.PausedNs
		row.EagerRebalances += gr.Evidence.Rebalances
	}
	return row, nil
}

// runTxnTrial is one ModeTxn trial: a transactional pipeline under a
// generated plan of broker outages, slowdowns, processor crashes and
// zombie incarnations, checked by chaos.VerifyTxn.
func runTxnTrial(ctx context.Context, cfg Config, planSeed, workloadSeed uint64) (Row, error) {
	iso := wire.ReadCommitted
	if cfg.Isolation == "read_uncommitted" {
		iso = wire.ReadUncommitted
	}
	plan := chaos.GenerateTxnPlan(planSeed, chaos.TxnGenConfig{
		Brokers:    3,
		Processors: 2,
		Horizon:    cfg.Horizon,
		MaxFaults:  cfg.MaxFaults,
		Unclean:    true,
	})
	res, err := testbed.RunTxnCtx(ctx, testbed.TxnExperiment{
		Seed:                workloadSeed,
		Messages:            cfg.Messages,
		Partitions:          2,
		BatchSize:           5,
		AbortEvery:          4,
		ReplicationFactor:   3,
		BrokerFlushInterval: cfg.FlushInterval,
		Isolation:           iso,
		TxnTimeout:          250 * time.Millisecond,
		MaxSimTime:          cfg.Horizon + 10*time.Second,
		FaultPlan:           plan,
	})
	if err != nil {
		return Row{}, fmt.Errorf("campaign: txn trial (plan %d, workload %d): %w", planSeed, workloadSeed, err)
	}
	verdict := chaos.VerifyTxn(chaos.TxnInput{
		Isolation:         iso,
		Plan:              plan,
		Attempts:          res.Attempts,
		InputKeys:         res.InputKeys,
		CommittedOffsets:  res.CommittedOffsets,
		OutputCommitted:   res.OutputCommitted,
		OutputUncommitted: res.OutputUncommitted,
		Completed:         res.Completed,
	})
	row := newRow(cfg, planSeed, workloadSeed, plan, res.BrokerStats, verdict)
	row.Completed = res.Completed
	row.Acquired = uint64(cfg.Messages)
	row.Isolation = cfg.Isolation
	if row.Isolation == "" {
		row.Isolation = "read_committed"
	}
	row.TxnAttempts = len(res.Attempts)
	row.TxnsCommitted = res.TxnStats.TxnsCommitted
	row.TxnsAborted = res.TxnStats.TxnsAborted
	row.TimeoutAborts = res.TxnStats.TimeoutAborts
	row.Incarnations = res.Incarnations
	for _, a := range res.Attempts {
		if a.Outcome == chaos.TxnFenced {
			row.FencedAttempts++
		}
	}
	for p := range res.OutputCommitted {
		row.Delivered += uint64(len(res.OutputCommitted[p]))
		row.Consumed += int64(len(res.OutputCommitted[p]))
	}
	return row, nil
}
