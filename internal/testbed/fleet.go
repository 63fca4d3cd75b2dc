package testbed

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/consumer"
	"kafkarel/internal/des"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/stats"
)

// Fleet describes a fleet-scale run: N producers spread over T topics,
// each topic carrying P partitions on its own three-broker cluster,
// with keyed partition routing and a consumer group draining every
// topic afterwards. One topic is one shard — an independent simulation
// with index-derived seeds — so shards fan out over exprun workers and
// merge deterministically: the scorecard and the merged entity
// timelines are byte-identical at any worker count.
//
// This generalises the paper's one-producer/one-partition testbed shape
// toward its future-work scale-out scenario; the per-producer delivery
// mechanics (Sec. III-E) are unchanged.
type Fleet struct {
	// Features carries the stream/network/config features every producer
	// runs with. PollInterval is overridden when UsersPerSec is set.
	Features features.Vector
	// Producers is the fleet-wide producer count, spread as evenly as
	// possible over the topics (earlier topics take the remainder).
	Producers int
	// Topics is the topic (= shard) count.
	Topics int
	// Partitions is the per-topic partition count; producers route to
	// partitions by key hash (producer.PartitionKeyed).
	Partitions int
	// Messages is the fleet-wide message budget, spread as evenly as
	// possible over the producers (earlier producers take the remainder).
	Messages int
	// Seed makes the whole fleet reproducible; shard and entity seeds
	// derive from it by index.
	Seed uint64
	// UsersPerSec, when positive, is the aggregate offered load: each
	// producer's poll interval δ is derived from the Sec. IV-C scaling
	// rule so that Producers producers together offer this many
	// messages/sec (clamped at full load when the target exceeds it).
	UsersPerSec float64
	// ConsumersPerTopic is each topic's consumer-group size (default 1).
	// The group runs in-simulation through each shard's coordinator:
	// members poll alongside the producers, commit through the
	// replicated offsets log, and leave once the shard's producers are
	// done and everything is drained and committed.
	ConsumersPerTopic int
	// Groups fans each topic's consumption out to that many independent
	// consumer groups (ids "g00", "g01", ...), each ConsumersPerTopic
	// strong, sharing the shard's coordinator and offsets log. The
	// default (0 or 1) runs the single legacy group "fleet". Multi-group
	// shards add one scorecard line and (under TimelineInterval) one
	// entity timeline ("t003/g01") per group.
	Groups int
	// Cooperative runs every group under the incremental cooperative
	// rebalance protocol (KIP-429) instead of the eager default.
	Cooperative bool
	// ConsumerFaults synthesizes deterministic per-shard consumer-member
	// crash/restart faults (derived from the shard seed) on top of
	// FaultPlan, forcing rebalances mid-stream — independently per
	// consumer group when Groups > 1. Requires ConsumersPerTopic >= 2 so
	// a survivor can take over.
	ConsumerFaults bool
	// MaxSimTime caps each shard's virtual duration (0 = none).
	MaxSimTime time.Duration
	// TimelineInterval, when positive, samples entity-tagged timelines:
	// one per producer ("t003/p0007": netem, transport and producer
	// columns), one per topic ("t003": broker columns, and the group's
	// with one group) and, with several groups, one per group
	// ("t003/g01"), all returned in FleetResult.Timelines in
	// shard-then-producer order.
	TimelineInterval time.Duration
	// DisableMetrics switches off the per-shard registries.
	DisableMetrics bool
	// FaultPlan injects broker faults (crash, recover, unclean restart,
	// slowdown) into every shard. Network and connection faults are
	// per-path and therefore rejected here — use a single-producer
	// Experiment for those.
	FaultPlan chaos.Plan
}

// Validate reports the first invalid fleet parameter.
func (f Fleet) Validate() error {
	switch {
	case f.Producers <= 0:
		return fmt.Errorf("testbed: fleet producer count %d <= 0", f.Producers)
	case f.Topics <= 0:
		return fmt.Errorf("testbed: fleet topic count %d <= 0", f.Topics)
	case f.Topics > f.Producers:
		return fmt.Errorf("testbed: fleet has %d topics but only %d producers", f.Topics, f.Producers)
	case f.Partitions <= 0:
		return fmt.Errorf("testbed: fleet partition count %d <= 0", f.Partitions)
	case f.Messages < f.Producers:
		return fmt.Errorf("testbed: %d messages across %d producers", f.Messages, f.Producers)
	}
	err := checkOverrides([]override{
		{"UsersPerSec", f.UsersPerSec < 0},
		{"ConsumersPerTopic", f.ConsumersPerTopic < 0},
		{"Groups", f.Groups < 0},
		{"MaxSimTime", f.MaxSimTime < 0},
		{"TimelineInterval", f.TimelineInterval < 0},
	})
	if err != nil {
		return err
	}
	if f.ConsumerFaults && exprun.DefInt(f.ConsumersPerTopic, 1) < 2 {
		return fmt.Errorf("testbed: consumer faults need at least 2 consumers per topic")
	}
	if err := f.Features.Validate(); err != nil {
		return fmt.Errorf("testbed: %w", err)
	}
	// Topic names grow with the index, so the last one is the longest.
	if err := checkTopic(fleetTopic(f.Topics-1), f.Partitions, f.Features.MessageSize, f.Features.BatchSize); err != nil {
		return err
	}
	for i, ft := range f.FaultPlan.Faults {
		switch ft.Kind {
		case chaos.BrokerCrash, chaos.BrokerRecover, chaos.UncleanRestart, chaos.BrokerSlow:
		case chaos.ConsumerCrash:
			if int(ft.Member) >= exprun.DefInt(f.ConsumersPerTopic, 1) {
				return fmt.Errorf("testbed: fleet fault %d targets consumer %d of %d", i, ft.Member, f.ConsumersPerTopic)
			}
			if int(ft.Group) >= exprun.DefInt(f.Groups, 1) {
				return fmt.Errorf("testbed: fleet fault %d targets group %d of %d", i, ft.Group, exprun.DefInt(f.Groups, 1))
			}
		default:
			return fmt.Errorf("testbed: fleet fault %d (%s): only broker and consumer faults apply fleet-wide", i, ft.Kind)
		}
	}
	return nil
}

// FleetTopicResult is one shard's (topic's) aggregate.
type FleetTopicResult struct {
	Topic      string
	Producers  int
	Partitions int
	// Acquired is the shard's ground-truth denominator (messages its
	// producers took in).
	Acquired uint64
	// Report is the shard's ReconcileRangesKeys reconciliation over the
	// consumer group's drained records.
	Report consumer.Report
	// Producer sums the shard's producer-view case distributions.
	Producer producer.Counts
	// Metrics is the shard registry's snapshot (zero when disabled).
	Metrics MetricsSnapshot
	// Latency merges the shard producers' delivery-latency summaries.
	Latency stats.Summary
	// Throughput is distinct delivered messages per simulated second.
	Throughput float64
	// Duration is the shard's simulated run time (when the last producer
	// finished, or the cut-off).
	Duration time.Duration
	// Completed reports whether every producer drained its source.
	Completed bool
	// Drained is how many records the consumer group delivered to the
	// application.
	Drained int64
	// GroupDrained reports whether every group member left cleanly with
	// its partitions consumed to the high watermark and committed.
	GroupDrained bool
	// Rebalances counts assignments the group's members applied;
	// Expirations counts coordinator-side session expirations.
	Rebalances  uint64
	Expirations uint64
	// E2EViolations counts end-to-end delivery invariant violations
	// (chaos.VerifyE2E) in the shard.
	E2EViolations int
	// CoopViolations counts cooperative-rebalance invariant violations
	// (chaos.VerifyCoop, counter-level: the redelivery bound) in the
	// shard.
	CoopViolations int
	// Lag is the per-partition records between durable committed
	// offsets and high watermarks at the end of the shard (zero
	// everywhere for a drained group).
	Lag []int64
	// Groups holds the per-group accounting in group-id order. A
	// single-group shard folds it into the fields above; multi-group
	// shards additionally sum (Drained, Rebalances, violations), AND
	// (GroupDrained) and mirror group 0 (Report, Lag) there.
	Groups []FleetGroupResult
}

// FleetGroupResult is one consumer group's share of a shard: every
// group independently drains the full topic through the shared
// coordinator, so each gets its own reconciliation and verdicts.
type FleetGroupResult struct {
	ID             string
	Drained        int64
	GroupDrained   bool
	Rebalances     uint64
	Expirations    uint64
	CoopFollowUps  uint64
	E2EViolations  int
	CoopViolations int
	Report         consumer.Report
	Lag            []int64
}

// FleetResult aggregates a fleet run in shard order.
type FleetResult struct {
	// Pl and Pd are the fleet-wide ground-truth reliability metrics.
	Pl float64
	Pd float64
	// Report sums the per-topic reconciliations.
	Report consumer.Report
	// Producer sums the per-topic producer-view counts.
	Producer producer.Counts
	// Metrics merges the per-topic snapshots (MetricsSnapshot.Merge).
	Metrics MetricsSnapshot
	// Latency merges every producer's latency summary.
	Latency stats.Summary
	// Acquired is the fleet-wide acquired-message count.
	Acquired uint64
	// Throughput sums the per-topic throughputs.
	Throughput float64
	// Duration is the slowest shard's duration.
	Duration time.Duration
	// Completed reports whether every shard completed.
	Completed bool
	// Topics holds the per-shard results in topic order.
	Topics []FleetTopicResult
	// Timelines holds the entity-tagged timelines in shard-then-producer
	// order (nil unless Fleet.TimelineInterval was set). Render with
	// obs.WriteMergedCSV.
	Timelines []*obs.Timeline
}

// fleetG renders a float in the canonical form shared with the
// timeline CSV.
func fleetG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Scorecard renders the fleet result in a canonical text form — the
// byte-equality surface of the fleet determinism contract: one line per
// topic in topic order, the fleet totals, then the merged metrics
// snapshot.
func (r FleetResult) Scorecard() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet topics=%d producers=%d\n", len(r.Topics), r.fleetProducers())
	for _, tr := range r.Topics {
		e2e := tr.Metrics.SpanDelivery
		fmt.Fprintf(&b, "topic %s producers=%d partitions=%d acquired=%d distinct=%d lost=%d dup=%d extra=%d foreign=%d drained=%d group_drained=%t rebalances=%d expirations=%d e2e_viol=%d lag=%v e2e_p50=%v e2e_p95=%v e2e_p99=%v throughput=%s completed=%t\n",
			tr.Topic, tr.Producers, tr.Partitions, tr.Acquired,
			tr.Report.Distinct, tr.Report.NLost, tr.Report.NDuplicated,
			tr.Report.ExtraCopies, tr.Report.Foreign, tr.Drained,
			tr.GroupDrained, tr.Rebalances, tr.Expirations, tr.E2EViolations,
			tr.Lag, e2e.Quantile(0.50), e2e.Quantile(0.95), e2e.Quantile(0.99),
			fleetG(tr.Throughput), tr.Completed)
		if len(tr.Groups) > 1 {
			for _, gr := range tr.Groups {
				fmt.Fprintf(&b, "group %s/%s drained=%d group_drained=%t rebalances=%d expirations=%d followups=%d e2e_viol=%d coop_viol=%d lost=%d dup=%d lag=%v\n",
					tr.Topic, gr.ID, gr.Drained, gr.GroupDrained, gr.Rebalances,
					gr.Expirations, gr.CoopFollowUps, gr.E2EViolations,
					gr.CoopViolations, gr.Report.NLost, gr.Report.NDuplicated, gr.Lag)
			}
		}
	}
	fmt.Fprintf(&b, "total acquired=%d distinct=%d lost=%d dup=%d foreign=%d pl=%s pd=%s throughput=%s completed=%t\n",
		r.Acquired, r.Report.Distinct, r.Report.NLost, r.Report.NDuplicated,
		r.Report.Foreign, fleetG(r.Pl), fleetG(r.Pd), fleetG(r.Throughput), r.Completed)
	b.WriteString("metrics:\n")
	b.Write(r.Metrics.Encode())
	return []byte(b.String())
}

func (r FleetResult) fleetProducers() int {
	n := 0
	for _, tr := range r.Topics {
		n += tr.Producers
	}
	return n
}

// fleetSeedStride separates shard seed streams; scalingSeedStride, a
// prime well away from it, separates the per-producer streams inside a
// shard.
const (
	fleetSeedStride   = 32452843
	scalingSeedStride = 15485863
)

// RunFleet executes a fleet with default workers (GOMAXPROCS).
func RunFleet(f Fleet) (FleetResult, error) {
	return RunFleetContext(context.Background(), f, 0)
}

// splitCount spreads total over parts as evenly as possible: part i
// gets total/parts plus one of the total%parts remainder units when
// i is among the first.
func splitCount(total, parts, i int) int {
	n := total / parts
	if i < total%parts {
		n++
	}
	return n
}

// fleetShard is the precomputed input of one shard run — pure data, so
// the shard function is a pure function of (index, shard) as the exprun
// contract requires.
type fleetShard struct {
	f     Fleet
	index int
	topic string
	// first is the global index of the shard's first producer;
	// producers is how many the shard owns.
	first     int
	producers int
	// poll is the derived per-producer poll interval.
	poll time.Duration
	seed uint64
}

// fleetTopic names shard i's topic.
func fleetTopic(i int) string { return fmt.Sprintf("t%03d", i) }

type fleetShardOut struct {
	topic     FleetTopicResult
	timelines []*obs.Timeline
}

// RunFleetContext is RunFleet with cancellation and an explicit worker
// bound (<= 0: GOMAXPROCS). Each topic is one independent simulation
// with index-derived seeds; the per-topic results merge in topic order,
// so scorecards and merged timelines are identical for every worker
// count.
func RunFleetContext(ctx context.Context, f Fleet, workers int) (FleetResult, error) {
	if err := f.Validate(); err != nil {
		return FleetResult{}, err
	}

	poll := f.Features.PollInterval
	if f.UsersPerSec > 0 {
		// Sec. IV-C scaling rule, solved for δ: each producer's arrival
		// period io + δ must be Producers/UsersPerSec for the aggregate
		// offered rate to hit the target.
		ioMean := time.Duration(float64(time.Second) / FullLoadRate(f.Features.MessageSize))
		period := time.Duration(float64(f.Producers) * float64(time.Second) / f.UsersPerSec)
		poll = period - ioMean
		if poll < 0 {
			poll = 0
		}
	}

	seedAt := exprun.LinearSeeds(f.Seed, fleetSeedStride)
	shards := make([]fleetShard, f.Topics)
	first := 0
	for i := range shards {
		n := splitCount(f.Producers, f.Topics, i)
		shards[i] = fleetShard{
			f:         f,
			index:     i,
			topic:     fleetTopic(i),
			first:     first,
			producers: n,
			poll:      poll,
			seed:      seedAt(i),
		}
		first += n
	}

	outs, err := exprun.Map(ctx, shards,
		func(ctx context.Context, _ int, sh fleetShard) (fleetShardOut, error) {
			out, err := runFleetShard(simFor(ctx), sh)
			if err != nil {
				return fleetShardOut{}, fmt.Errorf("testbed: topic %s: %w", sh.topic, err)
			}
			return out, nil
		},
		exprun.Options{Workers: workers})
	if err != nil {
		return FleetResult{}, err
	}

	res := FleetResult{Completed: true}
	for _, out := range outs {
		tr := out.topic
		res.Topics = append(res.Topics, tr)
		res.Timelines = append(res.Timelines, out.timelines...)
		res.Acquired += tr.Acquired
		res.Report.Add(tr.Report)
		res.Producer.Add(tr.Producer)
		res.Latency.Merge(tr.Latency)
		res.Metrics.Merge(tr.Metrics)
		res.Throughput += tr.Throughput
		if tr.Duration > res.Duration {
			res.Duration = tr.Duration
		}
		res.Completed = res.Completed && tr.Completed
	}
	res.Pl, res.Pd = res.Report.Pl(), res.Report.Pd()
	return res, nil
}

// runFleetShard builds and runs one topic's simulation: a cluster, the
// shard's consumer groups, its producers (each with its own emulated
// path, transport connection and server endpoint), optional entity
// timelines, then the per-group range reconciliation and verdicts.
func runFleetShard(sim *des.Simulator, sh fleetShard) (fleetShardOut, error) {
	f := sh.f
	var reg *obs.Registry
	if !f.DisableMetrics {
		reg = obs.NewRegistry()
	}
	// Every shard's topic and offsets log run at rf 3, with the rig's
	// default min-ISR and flush cadence.
	const rf = 3
	r, err := newRig(sim, &obs.Obs{Registry: reg}, 0, 0, f.Partitions, rf, sh.topic)
	if err != nil {
		return fleetShardOut{}, err
	}
	// Fleet-wide broker faults hit the groups' fetch and commit paths
	// too (the offsets log runs at the data topic's rf). Every group
	// independently consumes the whole topic.
	members := exprun.DefInt(f.ConsumersPerTopic, 1)
	nGroups := exprun.DefInt(f.Groups, 1)
	err = r.joinGroups(groupSpec{
		topic:       sh.topic,
		legacyID:    "fleet",
		groups:      nGroups,
		members:     members,
		cooperative: f.Cooperative,
		dedup:       f.Features.Semantics == features.SemanticsExactlyOnce,
		offsetsRF:   rf,
	})
	if err != nil {
		return fleetShardOut{}, err
	}

	seedAt := exprun.LinearSeeds(sh.seed, scalingSeedStride)
	var base uint64
	for j := 0; j < sh.producers; j++ {
		global := sh.first + j
		eSeed := seedAt(j)
		msgs := splitCount(f.Messages, f.Producers, global)
		pcfg, err := producerConfig(Experiment{Features: f.Features, Seed: eSeed, Partitions: f.Partitions}, sh.topic)
		if err != nil {
			return fleetShardOut{}, err
		}
		pcfg.PollInterval = sh.poll
		pcfg.Partitioner = producer.PartitionKeyed
		pcfg.KeyBase = base
		if _, err := r.addClient(clientSpec{v: f.Features, seed: eSeed, messages: msgs, cfg: pcfg}); err != nil {
			return fleetShardOut{}, fmt.Errorf("producer %d: %w", global, err)
		}
		base += uint64(msgs)
	}

	var topicTL *obs.Timeline
	if f.TimelineInterval > 0 {
		topicTL = r.timeline(f.TimelineInterval, sh.topic)
	}
	plan := chaos.Plan{Faults: append([]chaos.Fault(nil), f.FaultPlan.Faults...)}
	if f.ConsumerFaults {
		plan.Faults = append(plan.Faults, fleetConsumerFaults(sh.seed, members, nGroups)...)
	}
	if err := r.injectFaults(plan, chaos.Targets{Timeline: topicTL, Seed: sh.seed}); err != nil {
		return fleetShardOut{}, err
	}

	if topicTL != nil {
		// The topic entity samples the broker side once per interval —
		// per-producer appends are not separable at the broker, so the
		// shard's broker series lives on the topic entity and the
		// per-producer series carry the client side.
		var g *consumer.Group
		if nGroups == 1 {
			// The consumer-group series (per-partition lag, deliveries,
			// commit acks, rebalances) also lives on the topic entity;
			// multi-group shards move them to the per-group entities.
			g = r.groups[0]
		}
		r.sample(topicTL, r.probe(nil, sh.topic, g), r.allDone)
		if nGroups > 1 {
			// Multi-group shards put each group's series (lag, deliveries,
			// commits, rebalances, paused time) on its own tagged entity so
			// the merged CSV separates the fan-out; the topic entity keeps
			// only the broker side.
			for gi, g := range r.groups {
				tl := r.timeline(f.TimelineInterval, fmt.Sprintf("%s/g%02d", sh.topic, gi))
				r.sample(tl, r.probe(nil, "", g), r.allDone)
			}
		}
		for j, c := range r.clients {
			tl := r.timeline(f.TimelineInterval, fmt.Sprintf("%s/p%04d", sh.topic, sh.first+j))
			r.sample(tl, r.probe(c, "", nil), c.prod.Done)
		}
	}

	r.start()
	if err := r.run(f.MaxSimTime); err != nil {
		return fleetShardOut{}, err
	}

	tr := FleetTopicResult{
		Topic:      sh.topic,
		Producers:  sh.producers,
		Partitions: f.Partitions,
		Completed:  r.allDone(),
	}
	ranges := make([]consumer.KeyRange, len(r.clients))
	for j, c := range r.clients {
		tr.Producer.Add(c.prod.Counts())
		tr.Latency.Merge(c.prod.Latency())
		tr.Acquired += c.prod.Acquired()
		ranges[j] = consumer.KeyRange{Base: c.prod.Config().KeyBase, Count: c.prod.Acquired()}
		if c.doneAt > tr.Duration {
			tr.Duration = c.doneAt
		}
	}
	if !tr.Completed {
		tr.Duration = sim.Now()
	}

	sem := r.clients[0].prod.Config().Semantics
	regs := r.co.Regressions()
	runs, err := r.groupRuns()
	if err != nil {
		return fleetShardOut{}, err
	}
	tr.GroupDrained = true
	for gi, run := range runs {
		gr := FleetGroupResult{
			ID:            run.ID,
			GroupDrained:  run.Evidence.Drained,
			Rebalances:    run.Evidence.Rebalances,
			Expirations:   run.Stats.SessionExpirations,
			CoopFollowUps: run.Stats.CoopFollowUps,
			Report:        consumer.ReconcileRangesKeys(ranges, run.ConsumedKeys),
			Lag:           run.Lag,
		}
		for _, ks := range run.ConsumedKeys {
			gr.Drained += int64(len(ks))
		}
		e2e, coop := run.VerifierInputs(sem, rf, plan, regs)
		gr.E2EViolations = len(chaos.VerifyE2E(e2e).Violations)
		gr.CoopViolations = len(chaos.VerifyCoop(coop).Violations)
		tr.Groups = append(tr.Groups, gr)
		tr.Drained += gr.Drained
		tr.Rebalances += gr.Rebalances
		tr.E2EViolations += gr.E2EViolations
		tr.CoopViolations += gr.CoopViolations
		tr.GroupDrained = tr.GroupDrained && gr.GroupDrained
		if gi == 0 {
			tr.Report = gr.Report
			tr.Lag = gr.Lag
		}
	}
	tr.Expirations = r.co.Stats().SessionExpirations
	if reg != nil {
		tr.Metrics = snapshotMetrics(r, runs, tr.Report.NDuplicated)
	}
	if d := tr.Duration.Seconds(); d > 0 {
		tr.Throughput = float64(tr.Report.Distinct) / d
	}
	return fleetShardOut{topic: tr, timelines: r.timelines}, nil
}

// fleetConsumerFaults synthesizes the per-shard consumer crash/restart
// schedule: two crash windows on seed-chosen members per group, placed
// early enough to land inside the producing phase and sequenced so the
// plan validates (a member is never crashed while already down). Each
// group draws from its own PCG stream; group 0's stream matches the
// historical single-group schedule exactly.
func fleetConsumerFaults(seed uint64, members, groups int) []chaos.Fault {
	var faults []chaos.Fault
	for g := 0; g < groups; g++ {
		rng := rand.New(rand.NewPCG(seed, 0xC0115+uint64(g)*0x9E3779B97F4A7C15))
		durat := func() time.Duration {
			return 100*time.Millisecond + time.Duration(rng.Int64N(int64(300*time.Millisecond)))
		}
		first := chaos.Fault{
			Kind:     chaos.ConsumerCrash,
			At:       50*time.Millisecond + time.Duration(rng.Int64N(int64(150*time.Millisecond))),
			Duration: durat(),
			Member:   int32(rng.IntN(members)),
			Group:    int32(g),
		}
		second := chaos.Fault{
			Kind:     chaos.ConsumerCrash,
			At:       first.At + first.Duration + 50*time.Millisecond + time.Duration(rng.Int64N(int64(200*time.Millisecond))),
			Duration: durat(),
			Member:   int32(rng.IntN(members)),
			Group:    int32(g),
		}
		faults = append(faults, first, second)
	}
	return faults
}
