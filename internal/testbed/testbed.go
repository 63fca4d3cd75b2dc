// Package testbed assembles the full experiment pipeline of Sec. III-E:
// a three-broker cluster, an emulated network path with injected faults,
// a producer driven by synthetic source data, and a consumer-side
// reconciliation that yields the ground-truth reliability metrics P_l
// and P_d for a given feature vector. One Run is the simulated
// equivalent of one Docker-testbed experiment.
package testbed

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/broker"
	"kafkarel/internal/chaos"
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/stats"
	"kafkarel/internal/wire"
)

// Experiment describes one testbed run. The Features vector carries the
// paper's eight prediction features; the remaining fields are the fixed
// plumbing of the testbed itself.
type Experiment struct {
	Features features.Vector
	// Messages is the number of source messages (the paper uses 10^6; the
	// probabilities converge much earlier).
	Messages int
	// Seed makes the run reproducible.
	Seed uint64
	// Partitions is the topic's partition count (default 1). Above 1 the
	// producer round-robins batches across partitions and the consumer
	// reconciles all of them.
	Partitions int
	// Trace, when non-empty, drives a time-varying network instead of the
	// constant Features.DelayMs / Features.LossRate.
	Trace netem.Trace
	// MaxSimTime caps the virtual duration (0 = none); experiments cut
	// short report metrics over the messages acquired so far.
	MaxSimTime time.Duration
	// FaultPlan schedules chaos faults across every layer — broker
	// crashes, unclean restarts, network partitions, burst loss, delay
	// spikes, connection resets, broker slowdowns (see internal/chaos).
	FaultPlan chaos.Plan
	// ReplicationFactor overrides the topic's replication factor
	// (default 3, the paper's three-broker testbed).
	ReplicationFactor int
	// MinISR is the minimum in-sync replica count acks=all requests
	// require (default 1): with MinISR > 1, a broker outage makes
	// produce requests fail fast with ErrNotEnoughReplicas instead of
	// acking on the survivors.
	MinISR int
	// BrokerFlushInterval sets the brokers' fsync cadence. Zero (the
	// default) keeps every append durable; a positive interval opens the
	// real acks=1 data-loss window under unclean restarts.
	BrokerFlushInterval time.Duration
	// CaptureEvidence retains the per-record outcome log, the
	// per-partition consumed keys, and per-broker counters on the Result
	// — the chaos invariant checker's inputs. Off by default (the outcome
	// log is memory-heavy for large runs).
	CaptureEvidence bool
	// Consumers, when positive, runs a consumer group of that many
	// members through the broker-side group coordinator alongside the
	// producer: members join at t=0, poll their assigned partitions,
	// commit through the replicated offsets log, and leave once the
	// producer is done and their partitions are drained and committed.
	// Requires MaxSimTime > 0 (a group stuck on a permanently
	// unservable partition polls until its idle give-up, and the run
	// needs a horizon). Exactly-once features run the group with
	// offset-dedup on; everything the group saw comes back in the
	// Result's Group* fields. ConsumerCrash faults in the plan target
	// this group.
	Consumers int
	// Groups fans the consumption out to that many independent consumer
	// groups (ids "g00", "g01", ...), each with Consumers members, all
	// subscribed to the topic and sharing one coordinator and offsets
	// log. The default (0 or 1) runs the single legacy group "testbed".
	// ConsumerCrash faults select a group via Fault.Group; results come
	// back per group in Result.GroupRuns.
	Groups int
	// Cooperative runs the consumer group(s) under the incremental
	// cooperative rebalance protocol (KIP-429) instead of the eager
	// stop-the-world default.
	Cooperative bool
	// OffsetsReplication overrides the coordinator's offsets-topic
	// replication factor (default min(3, brokers)). Running it at 1
	// under unclean restarts is how committed offsets get lost.
	OffsetsReplication int
	// Schedule applies configuration changes at virtual times — the
	// paper's dynamic-configuration mechanism (Sec. V). Each change maps
	// the vector's configuration features (semantics, B, δ, T_o) onto the
	// running producer; the stream and network features of scheduled
	// vectors are ignored.
	Schedule []ConfigChange
	// DisableMetrics switches off the per-run obs.Registry; Result.Metrics
	// then stays zero. Metrics are on by default: the counts are the
	// layers' own fields, summed once after the run, and the registry
	// holds only histograms.
	DisableMetrics bool
	// Tracer, when non-nil, receives the run's structured event stream
	// (record lifecycle, transport, broker events). The testbed binds the
	// tracer to the run's virtual clock.
	Tracer *obs.Tracer
	// Timeline, when non-nil, samples the run at the timeline's interval
	// (netem, transport, producer, broker and, with consumers, group
	// columns) and records config switches and broker events as
	// annotations; it comes back as Result.Timeline.
	Timeline *obs.Timeline
	// Overrides for producer plumbing; zero values take the defaults
	// below.
	QueueLimit     int
	MaxInFlight    int
	MaxRetries     int
	RequestTimeout time.Duration
	RetryBackoff   time.Duration
	// RetryBackoffMax, when positive, switches retries from fixed backoff
	// to exponential backoff with decorrelated jitter capped here; the
	// jitter draws from a PCG stream derived from Seed, so runs stay
	// deterministic.
	RetryBackoffMax time.Duration

	// cal, when non-nil, replaces hostCalibration for this run. Only this
	// package's tests set it, to knock a host mechanism out.
	cal *calibration
}

// ConfigChange is one scheduled reconfiguration.
type ConfigChange struct {
	At       time.Duration
	Features features.Vector
}

// Plumbing defaults (see DESIGN.md §5 for how they were chosen).
const (
	DefaultQueueLimit     = 12
	DefaultMaxInFlight    = 5
	DefaultMaxRetries     = 5
	DefaultRequestTimeout = 2000 * time.Millisecond
	DefaultRetryBackoff   = 20 * time.Millisecond
	DefaultLingerTime     = 5 * time.Millisecond
)

// Result is everything one run measures.
type Result struct {
	// Pl and Pd are the ground-truth reliability metrics from consumer
	// reconciliation (Sec. III-F).
	Pl float64
	Pd float64
	// Report is the full consumer reconciliation.
	Report consumer.Report
	// Producer is the producer-view Table I case distribution.
	Producer producer.Counts
	// Metrics is the per-run observability snapshot (zero when
	// Experiment.DisableMetrics was set).
	Metrics MetricsSnapshot
	// Timeline echoes Experiment.Timeline after the run, with a final
	// sample taken once the simulation drained (so late broker appends
	// are covered and column sums equal the Metrics counters).
	Timeline *obs.Timeline
	// Latency summarises delivered-message T_p in milliseconds.
	Latency stats.Summary
	// StaleRate is the fraction of delivered messages with T_p > S.
	StaleRate float64
	// Throughput is delivered messages per simulated second.
	Throughput float64
	// BandwidthUtilization is the measured φ: delivered forward-link bytes
	// over link capacity for the run duration.
	BandwidthUtilization float64
	// Acquired is how many source messages entered the producer.
	Acquired uint64
	// Duration is the simulated run time.
	Duration time.Duration
	// Completed reports whether the source drained before MaxSimTime.
	Completed bool
	// Outcomes is the per-record outcome log (Experiment.CaptureEvidence).
	Outcomes []producer.Outcome
	// ConsumedKeys holds, per partition, the consumed record keys in
	// offset order (Experiment.CaptureEvidence).
	ConsumedKeys [][]uint64
	// BrokerStats is every broker's counter snapshot, indexed by node ID.
	BrokerStats []broker.Stats
	// GroupEvidence is the consumer group's delivery record
	// (Experiment.Consumers > 0).
	GroupEvidence *consumer.Evidence
	// GroupConsumedKeys is the group's per-partition application stream.
	GroupConsumedKeys [][]uint64
	// GroupCommitted is the durable committed offset per partition at
	// the end of the run (-1 = nothing committed).
	GroupCommitted []int64
	// GroupLag is the per-partition records between the durable
	// committed offsets and the high watermarks at the end of the run
	// (zero everywhere for a drained group).
	GroupLag []int64
	// Coordinator is the group coordinator's activity counters.
	Coordinator *coordinator.Stats
	// OffsetRegressions are committed watermarks the offsets log lost
	// across unclean restarts.
	OffsetRegressions []coordinator.OffsetRegression
	// GroupRuns holds one entry per consumer group in join order
	// (Experiment.Groups); the legacy Group* fields above mirror
	// GroupRuns[0].
	GroupRuns []GroupRun
}

// GroupRun is one consumer group's slice of a multi-group run.
type GroupRun struct {
	// ID is the group id ("testbed", or "g00", "g01", ... when fanned
	// out).
	ID string
	// Evidence is the group's delivery record.
	Evidence consumer.Evidence
	// ConsumedKeys is the group's per-partition application stream.
	ConsumedKeys [][]uint64
	// Committed is the durable committed offset per partition at the end
	// of the run (-1 = nothing committed).
	Committed []int64
	// Lag is the per-partition end-of-run backlog.
	Lag []int64
	// Stats is the coordinator's per-group activity ledger.
	Stats coordinator.GroupStats
}

// Run executes one experiment.
func Run(e Experiment) (Result, error) {
	return runOn(des.New(), e)
}

// trialScratch is the warm state a worker keeps between trials.
type trialScratch struct {
	sim *des.Simulator
}

// RunCtx executes one experiment like Run, but when ctx belongs to an
// exprun worker it reuses the worker's simulator across trials
// (des.Reset keeps the event heap and free-list capacity), so a sweep's
// steady-state trials skip the per-run warm-up allocations. Results are
// byte-identical to Run's.
func RunCtx(ctx context.Context, e Experiment) (Result, error) {
	return runOn(simFor(ctx), e)
}

// RunAll runs a batch of independent experiments on one exprun pool and
// returns their results in input order. Each runs through RunCtx on its
// worker's warm simulator, and callers fix every seed in the list, so
// the results equal a sequential loop of Run at any worker count. The
// error names the failing experiment's index and configuration.
func RunAll(ctx context.Context, exps []Experiment, opts exprun.Options) ([]Result, error) {
	return exprun.Map(ctx, exps, func(ctx context.Context, i int, e Experiment) (Result, error) {
		res, err := RunCtx(ctx, e)
		if err != nil {
			return Result{}, fmt.Errorf("experiment %d (%+v, seed %d): %w", i, e.Features, e.Seed, err)
		}
		return res, nil
	}, opts)
}

// simFor returns the simulator a run should use: the calling exprun
// worker's warm simulator (reset, keeping its event-heap and free-list
// capacity) when ctx belongs to a worker pool, or a fresh one
// otherwise. RunCtx trials and fleet shards share it.
func simFor(ctx context.Context) *des.Simulator {
	s := exprun.ContextScratch(ctx)
	if s == nil {
		return des.New()
	}
	ts, ok := s.Get().(*trialScratch)
	if !ok {
		ts = &trialScratch{sim: des.New()}
		s.Set(ts)
	} else {
		ts.sim.Reset()
	}
	return ts.sim
}

func runOn(sim *des.Simulator, e Experiment) (Result, error) {
	r, err := e.assemble(sim)
	if err != nil {
		return Result{}, err
	}
	r.start()
	if err := r.run(e.MaxSimTime); err != nil {
		return Result{}, fmt.Errorf("testbed: %w", err)
	}
	return r.collect(e)
}

// streamTopic is the single-experiment data topic.
const streamTopic = "stream"

// assemble builds the single-producer rig of one experiment, up to but
// not including start: cluster and topic, the optional consumer groups,
// the one client, the fault plan, the scheduled reconfigurations, the
// timeline sampler.
func (e Experiment) assemble(sim *des.Simulator) (*rig, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	pcfg, err := producerConfig(e, streamTopic)
	if err != nil {
		return nil, err
	}
	o := &obs.Obs{Trace: e.Tracer}
	if !e.DisableMetrics {
		o.Registry = obs.NewRegistry()
	}
	e.Tracer.BindClock(sim)
	e.Timeline.BindClock(sim)

	r, err := newRig(sim, o, e.BrokerFlushInterval, e.MinISR,
		exprun.DefInt(e.Partitions, 1), exprun.DefInt(e.ReplicationFactor, 3), streamTopic)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	if e.cal != nil {
		r.cal = *e.cal
	}
	if e.Consumers > 0 {
		err := r.joinGroups(groupSpec{
			topic:       streamTopic,
			legacyID:    "testbed",
			groups:      exprun.DefInt(e.Groups, 1),
			members:     e.Consumers,
			cooperative: e.Cooperative,
			dedup:       e.Features.Semantics == features.SemanticsExactlyOnce,
			evidence:    e.CaptureEvidence,
			offsetsRF:   e.OffsetsReplication,
		})
		if err != nil {
			return nil, fmt.Errorf("testbed: %w", err)
		}
	}
	c, err := r.addClient(clientSpec{
		v: e.Features, seed: e.Seed, trace: e.Trace, messages: e.Messages,
		cfg: pcfg, outcomes: e.CaptureEvidence,
	})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	err = r.injectFaults(e.FaultPlan, chaos.Targets{Path: c.path, Conn: c.conn, Timeline: e.Timeline, Seed: e.Seed})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	for i, change := range e.Schedule {
		next := e
		next.Features = change.Features
		ncfg, err := producerConfig(next, streamTopic)
		if err != nil {
			return nil, fmt.Errorf("testbed: schedule entry %d: %w", i, err)
		}
		sim.Schedule(change.At, func() {
			// Reconfigure pins topic/partitions/producer ID itself; a
			// schedule entry can only carry tunable parameters.
			if err := c.prod.Reconfigure(ncfg); err != nil {
				r.fail(err)
				return
			}
			e.Timeline.Annotate(obs.AnnConfigSwitch, describeConfig(change.Features))
		})
	}
	if e.Timeline != nil {
		var g *consumer.Group
		if len(r.groups) > 0 {
			g = r.groups[0]
		}
		r.sample(e.Timeline, r.probe(c, streamTopic, g), c.prod.Done)
	}
	return r, nil
}

// validate rejects a configuration that would otherwise run degraded
// with no error: a negative override silently taking its default, a
// MinISR no partition can meet, or a topic checkTopic refuses. It also
// rejects a schedule entry that would fail only when it fires, mid-run,
// or that des would refuse to schedule.
func (e Experiment) validate() error {
	if err := e.Features.Validate(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	if e.Messages <= 0 {
		return fmt.Errorf("testbed: message count %d <= 0", e.Messages)
	}
	err := checkOverrides([]override{
		{"Partitions", e.Partitions < 0},
		{"ReplicationFactor", e.ReplicationFactor < 0},
		{"MinISR", e.MinISR < 0},
		{"Consumers", e.Consumers < 0},
		{"Groups", e.Groups < 0},
		{"OffsetsReplication", e.OffsetsReplication < 0},
		{"QueueLimit", e.QueueLimit < 0},
		{"MaxInFlight", e.MaxInFlight < 0},
		{"MaxRetries", e.MaxRetries < 0},
		{"MaxSimTime", e.MaxSimTime < 0},
		{"RequestTimeout", e.RequestTimeout < 0},
		{"RetryBackoff", e.RetryBackoff < 0},
		{"RetryBackoffMax", e.RetryBackoffMax < 0},
	})
	if err != nil {
		return err
	}
	if rf := exprun.DefInt(e.ReplicationFactor, 3); e.MinISR > rf {
		return fmt.Errorf("testbed: MinISR %d exceeds replication factor %d", e.MinISR, rf)
	}
	if e.Consumers > 0 && e.MaxSimTime <= 0 {
		return fmt.Errorf("testbed: Consumers > 0 requires MaxSimTime")
	}
	batches := []int{e.Features.BatchSize}
	for i, c := range e.Schedule {
		if c.At < 0 {
			return fmt.Errorf("testbed: schedule entry %d: negative At %v", i, c.At)
		}
		if err := c.Features.Validate(); err != nil {
			return fmt.Errorf("testbed: schedule entry %d: %w", i, err)
		}
		batches = append(batches, c.Features.BatchSize)
	}
	return checkTopic(streamTopic, e.Partitions, e.Features.MessageSize, batches...)
}

// override is one optional numeric field of an entry point's
// configuration, where zero takes the default and negative is an error.
type override struct {
	name     string
	negative bool
}

// checkOverrides rejects the first negative override.
func checkOverrides(overrides []override) error {
	for _, o := range overrides {
		if o.negative {
			return fmt.Errorf("testbed: negative %s", o.name)
		}
	}
	return nil
}

// maxPartitions caps a topic's partition count at every entry point. The
// largest count any run here uses is 32; far above it a run only spends
// host time building partitions (10^6 of them take seconds for a
// 200-message run).
const maxPartitions = 1024

// checkTopic is the topic rule every entry point shares: at most
// maxPartitions partitions, and for each batch size b a produce frame
// on topic that can carry b records of m bytes (a batch no frame can
// carry is lost whole, so the run would report P_l = 1 and no error).
func checkTopic(topic string, partitions, m int, batches ...int) error {
	if partitions > maxPartitions {
		return fmt.Errorf("testbed: %d partitions exceed the per-topic cap of %d", partitions, maxPartitions)
	}
	for _, b := range batches {
		if m > wire.MaxFrameSize || b > wire.MaxFrameSize ||
			wire.ProduceFrameSize(len(topic), b, b*m) > wire.MaxFrameSize {
			return fmt.Errorf("testbed: a batch of %d records of %d bytes exceeds the %d-byte frame limit", b, m, wire.MaxFrameSize)
		}
	}
	return nil
}

// describeConfig renders the tunable configuration features of a vector
// for timeline annotations — the parameters a schedule entry actually
// applies.
func describeConfig(v features.Vector) string {
	return fmt.Sprintf("%s B=%d delta=%v To=%v",
		producer.Semantics(v.Semantics), v.BatchSize, v.PollInterval, v.MessageTimeout)
}

// producerConfig maps a feature vector plus experiment overrides onto the
// producer configuration. Schedule entries reach it without
// Features.Validate having run on them, so it range-checks the semantics
// code itself.
func producerConfig(e Experiment, topic string) (producer.Config, error) {
	sem := producer.Semantics(e.Features.Semantics)
	if sem < producer.AtMostOnce || sem > producer.ExactlyOnce {
		return producer.Config{}, fmt.Errorf("testbed: unknown semantics %d", e.Features.Semantics)
	}
	cfg := producer.Config{
		Topic:           topic,
		Semantics:       sem,
		BatchSize:       e.Features.BatchSize,
		PollInterval:    e.Features.PollInterval,
		MessageTimeout:  e.Features.MessageTimeout,
		MaxRetries:      exprun.DefInt(e.MaxRetries, DefaultMaxRetries),
		RetryBackoff:    exprun.DefDur(e.RetryBackoff, DefaultRetryBackoff),
		RetryBackoffMax: e.RetryBackoffMax,
		RequestTimeout:  exprun.DefDur(e.RequestTimeout, DefaultRequestTimeout),
		MaxInFlight:     exprun.DefInt(e.MaxInFlight, DefaultMaxInFlight),
		Partitions:      int32(exprun.DefInt(e.Partitions, 1)),
		QueueLimit:      exprun.DefInt(e.QueueLimit, DefaultQueueLimit),
		LingerTime:      DefaultLingerTime,
		ReconnectDelay:  50 * time.Millisecond,
	}
	// Always assigned: idempotence only engages when the semantics is
	// exactly-once, and a schedule may switch semantics mid-run.
	cfg.ProducerID = e.Seed + 1
	return cfg, nil
}

// appendKeys appends the keys of a fetched run to keys.
func appendKeys(keys []uint64, run []wire.Record) []uint64 {
	for i := range run {
		keys = append(keys, run[i].Key)
	}
	return keys
}

// collect reconciles and aggregates a single-client run.
func (r *rig) collect(e Experiment) (Result, error) {
	c := r.clients[0]
	res := Result{
		Timeline:  e.Timeline,
		Producer:  c.prod.Counts(),
		Latency:   c.prod.Latency(),
		Acquired:  c.prod.Acquired(),
		Duration:  r.sim.Now(),
		Completed: c.prod.Done(),
	}
	if c.doneAt >= 0 {
		res.Duration = c.doneAt
	}
	tally := consumer.NewTally(res.Acquired)
	for p := int32(0); p < int32(exprun.DefInt(e.Partitions, 1)); p++ {
		cons, err := consumer.New(r.clst, streamTopic, p)
		if err != nil {
			return Result{}, fmt.Errorf("testbed: %w", err)
		}
		keys := []uint64{} // non-nil: evidence renders an empty partition as [], not null
		err = cons.Consume(func(run []wire.Record) {
			tally.Add(run)
			if e.CaptureEvidence {
				keys = appendKeys(keys, run)
			}
		})
		if err != nil {
			return Result{}, fmt.Errorf("testbed: partition %d: %w", p, err)
		}
		if e.CaptureEvidence {
			res.ConsumedKeys = append(res.ConsumedKeys, keys)
		}
	}
	if e.CaptureEvidence {
		res.Outcomes = c.prod.Outcomes()
	}
	res.BrokerStats = r.clst.StatsAll()
	var err error
	if res.GroupRuns, err = r.groupRuns(); err != nil {
		return Result{}, fmt.Errorf("testbed: %w", err)
	}
	if len(res.GroupRuns) > 0 {
		first := &res.GroupRuns[0]
		res.GroupEvidence = &first.Evidence
		res.GroupConsumedKeys = first.ConsumedKeys
		res.GroupCommitted = first.Committed
		res.GroupLag = first.Lag
		st := r.co.Stats()
		res.Coordinator = &st
		res.OffsetRegressions = r.co.Regressions()
	}
	res.Report = tally.Report()
	res.Pl = res.Report.Pl()
	res.Pd = res.Report.Pd()
	if r.o.Registry != nil {
		res.Metrics = snapshotMetrics(r, res.GroupRuns, res.Report.NDuplicated)
	}
	if d := res.Duration.Seconds(); d > 0 {
		res.Throughput = float64(res.Report.Distinct) / d
		res.BandwidthUtilization = float64(c.path.Fwd.Counters().BytesDelivery*8) / (r.cal.bandwidth * d)
	}
	if res.Producer.Delivered > 0 {
		res.StaleRate = float64(c.prod.Stale()) / float64(res.Producer.Delivered)
	}
	return res, nil
}
