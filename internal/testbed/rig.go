package testbed

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/cluster"
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/workload"
)

// rig is the one assembly of the Sec. III-E pipeline. Every entry point
// — Run/RunCtx, a fleet shard, RunTxn — is a configuration that calls
// the same build steps, each defined once here, in one canonical order:
//
//	newRig (cluster, topics) → joinGroups (coordinator, consumer groups)
//	→ addClient (links, transport, server endpoint, producer)
//	→ injectFaults → sample (timeline samplers) → start → run
//
// The order is part of every result: the simulator breaks ties between
// events at one instant by insertion sequence, so two steps that both
// schedule events must stay in this order for a run to reproduce
// (DESIGN.md "The rig" says which steps schedule and which do not).
type rig struct {
	sim     *des.Simulator
	o       *obs.Obs
	cal     calibration
	clst    *cluster.Cluster
	rf      int // the data topics' replication factor
	co      *coordinator.Coordinator
	groups  []*consumer.Group // every group, in join order
	clients []*client
	// finished counts the clients whose producer has finished, so
	// allDone, asked on every member's poll tick, is one comparison.
	finished int
	// timelines holds every sampled timeline in sampler order; run takes
	// their final samples.
	timelines []*obs.Timeline
	cfgErr    error
}

// newRig builds the three-broker cluster with its topics, each with the same partition count and replication
// factor. Its clients run on hostCalibration unless the caller replaces
// r.cal before adding them.
func newRig(sim *des.Simulator, o *obs.Obs, flush time.Duration, minISR, partitions, rf int, topics ...string) (*rig, error) {
	cfg := cluster.DefaultConfig()
	cfg.Obs = o
	cfg.Broker.Obs = o
	cfg.Broker.FlushInterval = flush
	cfg.MinISR = minISR
	clst, err := cluster.New(sim, cfg)
	if err != nil {
		return nil, err
	}
	for _, topic := range topics {
		if err := clst.CreateTopic(topic, partitions, rf); err != nil {
			return nil, err
		}
	}
	return &rig{sim: sim, o: o, cal: hostCalibration, clst: clst, rf: rf}, nil
}

// fail records the first runtime error of a scheduled reconfiguration
// or fault injection; run reports it.
func (r *rig) fail(err error) {
	if r.cfgErr == nil {
		r.cfgErr = err
	}
}

// groupSpec describes the consumer side of a rig: `groups` independent
// groups of `members` members each, all subscribed to topic and sharing
// one coordinator and one offsets log.
type groupSpec struct {
	topic string
	// legacyID names a single group; a fan-out names its groups "g00",
	// "g01", ...
	legacyID        string
	groups, members int
	cooperative     bool
	dedup           bool
	evidence        bool
	offsetsRF       int
}

// joinGroups starts the broker-side coordinator and joins the groups'
// members at t=0. The groups run in-simulation: members poll alongside
// the producers, commit through the coordinator's replicated offsets
// log, and leave once every client is done and their partitions are
// drained and committed. Zero groups yields the coordinator alone.
func (r *rig) joinGroups(s groupSpec) error {
	co, err := coordinator.New(r.sim, r.clst, coordinator.Config{OffsetsReplication: s.offsetsRF, Obs: r.o})
	if err != nil {
		return err
	}
	r.co = co
	for gi := 0; gi < s.groups; gi++ {
		id := s.legacyID
		if s.groups > 1 {
			id = fmt.Sprintf("g%02d", gi)
		}
		grp, err := consumer.NewGroup(r.sim, co, r.clst, consumer.GroupConfig{
			ID:              id,
			Topic:           s.topic,
			Auto:            true,
			Cooperative:     s.cooperative,
			Dedup:           s.dedup,
			CaptureEvidence: s.evidence,
			IdleGiveUp:      time.Second,
			Obs:             r.o,
		})
		if err != nil {
			return err
		}
		for i := 0; i < s.members; i++ {
			if err := grp.Join(fmt.Sprintf("c%02d", i)); err != nil {
				return err
			}
		}
		grp.SetDrainCheck(r.allDone)
		r.groups = append(r.groups, grp)
	}
	return nil
}

// clientSpec describes one producer and its private network path.
type clientSpec struct {
	// v supplies the stream and network features (M, S, D, L); the
	// configuration features arrive already mapped in cfg.
	v    features.Vector
	seed uint64
	// trace, when non-empty, drives a time-varying network instead of the
	// constant v.DelayMs / v.LossRate.
	trace    netem.Trace
	messages int
	cfg      producer.Config
	outcomes bool
}

// client is one producer's wiring: emulated path, transport connection
// with its server endpoint on the cluster, and the producer itself.
type client struct {
	path *netem.Path
	conn *transport.Conn
	prod *producer.Producer
	// doneAt is the virtual time the producer finished (-1 if cut off).
	doneAt time.Duration
}

// linkConfig is one direction of a client's path. Under a trace the
// trace owns delay and loss.
func (r *rig) linkConfig(s clientSpec, seed uint64) (netem.Config, error) {
	cfg := netem.Config{Bandwidth: r.cal.bandwidth, QueueLimit: 1000, Obs: r.o}
	if len(s.trace) > 0 {
		return cfg, nil
	}
	if s.v.DelayMs > 0 {
		cfg.Delay = stats.Constant{Value: s.v.DelayMs}
	}
	if s.v.LossRate > 0 {
		loss, err := stats.NewBernoulli(s.v.LossRate, rand.New(rand.NewPCG(seed, 0x01)))
		if err != nil {
			return cfg, err
		}
		cfg.Loss = loss
	}
	return cfg, nil
}

// addClient wires one producer to the cluster: link configs →
// netem.Path (→ trace) → transport.Conn → cluster.Server → cost model →
// producer. Only Trace.Apply schedules events; the constructors do not.
func (r *rig) addClient(s clientSpec) (*client, error) {
	fwd, err := r.linkConfig(s, s.seed)
	if err != nil {
		return nil, fmt.Errorf("forward link: %w", err)
	}
	rev, err := r.linkConfig(s, s.seed+1)
	if err != nil {
		return nil, fmt.Errorf("reverse link: %w", err)
	}
	path, err := netem.NewPath(r.sim, fwd, rev)
	if err != nil {
		return nil, err
	}
	if len(s.trace) > 0 {
		if err := s.trace.Apply(r.sim, path, s.seed); err != nil {
			return nil, err
		}
	}
	conn, err := transport.NewConn(r.sim, path, transport.Config{SendBufferLimit: r.cal.socketBuffer, Obs: r.o})
	if err != nil {
		return nil, err
	}
	srv, err := cluster.NewServer(r.clst, conn.Server)
	if err != nil {
		return nil, err
	}
	conn.OnReset(srv.ResetParser)

	src, err := workload.NewFixedSource(s.v.MessageSize, s.messages)
	if err != nil {
		return nil, err
	}
	c := &client{path: path, conn: conn, doneAt: -1}
	opts := []producer.Option{
		producer.WithTimeliness(s.v.Timeliness),
		producer.WithCompletion(func() {
			c.doneAt = r.sim.Now()
			r.finished++
		}),
		producer.WithObs(r.o),
		producer.WithRetryRand(rand.New(rand.NewPCG(s.seed, 0x03))),
	}
	if s.outcomes {
		opts = append(opts, producer.WithOutcomeLog(s.messages))
	}
	costs := newCostModel(r.cal, rand.New(rand.NewPCG(s.seed, 0x02)))
	c.prod, err = producer.New(r.sim, s.cfg, costs, conn, src, opts...)
	if err != nil {
		return nil, err
	}
	r.clients = append(r.clients, c)
	return c, nil
}

// allDone reports whether every client's producer finished — the
// groups' drain predicate and the shared samplers' stop condition.
func (r *rig) allDone() bool {
	done := r.finished == len(r.clients)
	if verifyFinished {
		walked := true
		for _, c := range r.clients {
			walked = walked && c.prod.Done()
		}
		if walked != done {
			panic(fmt.Sprintf("testbed: %d of %d producers counted finished, but walking them says all done = %v", r.finished, len(r.clients), walked))
		}
	}
	return done
}

// injectFaults registers a fault plan against the rig. The caller
// supplies what only it knows — the path and connection network faults
// hit, the processor set, the annotated timeline, the seed of the
// loss-burst chains; the rig fills in the rest.
func (r *rig) injectFaults(plan chaos.Plan, t chaos.Targets) error {
	if len(plan.Faults) == 0 {
		return nil
	}
	t.Sim, t.Cluster, t.Groups, t.OnError = r.sim, r.clst, r.groups, r.fail
	if err := chaos.Schedule(plan, t); err != nil {
		return fmt.Errorf("fault plan: %w", err)
	}
	return nil
}

// timeline returns a new timeline for one tagged entity of a
// multi-entity run, bound to the rig's clock.
func (r *rig) timeline(interval time.Duration, entity string) *obs.Timeline {
	tl := obs.NewTimeline(interval)
	tl.SetEntity(entity)
	tl.BindClock(r.sim)
	return tl
}

// probe returns the timeline probe of one entity: client c's network,
// transport and producer columns, the brokers' columns for topic and
// group g's columns, each part left out when c is nil, topic is "" or g
// is nil. A count is summed as snapshotMetrics sums it — both links and
// both endpoints of the client, every broker, followers included — so
// the columns sum to the run's metrics; the network and transport
// gauges are the client side's.
func (r *rig) probe(c *client, topic string, g *consumer.Group) func() obs.TimelineRow {
	return func() obs.TimelineRow {
		row := obs.TimelineRow{GEState: -1, DelayMs: -1}
		if c != nil {
			row.GEState, row.DelayMs, row.CfgLoss = c.path.Fwd.State()
			for _, l := range [...]*netem.Link{c.path.Fwd, c.path.Rev} {
				n := l.Counters()
				row.PktsOffered += n.Offered
				row.PktsLost += n.LostRandom + n.LostOverflow
			}
			st := c.conn.Client.Stats()
			row.Cwnd, row.SRTT, row.RTO, row.InFlightSegs = st.Cwnd, st.SRTT, st.RTO, st.InFlight
			for _, e := range [...]*transport.Endpoint{c.conn.Client, c.conn.Server} {
				st := e.Stats()
				row.SegmentsSent += st.SegmentsSent
				row.Retransmits += st.Retransmissions
				row.RTOTimeouts += st.Timeouts
			}
			counts := c.prod.Counts()
			row.QueueDepth, row.InFlightBatches = c.prod.Backlog()
			row.Enqueued, row.Acked, row.Lost = c.prod.Acquired(), counts.Delivered, counts.Lost
			row.BatchRetries = c.prod.Stats().BatchRetries
		}
		if topic != "" {
			row.LogEnd = r.clst.LogEnd(topic)
			for id := range r.clst.Brokers() {
				st := r.clst.Broker(int32(id)).Stats()
				row.Appends += st.RecordsAppended
				row.DupAppends += st.DuplicateAppends
			}
		}
		if g != nil {
			row.LagParts = g.FencedLag()
			for _, lag := range row.LagParts {
				row.Lag += lag
			}
			ev := g.Counts()
			row.GroupDelivered, row.GroupRedelivered = ev.Delivered, ev.Redelivered
			row.CommitAcks, row.Rebalances = ev.CommitsAcked, ev.Rebalances
		}
		return row
	}
}

// sample starts a timeline's sampler reading probe. Row 0 anchors the
// series at t=0; the ticker adds one row per interval and stops itself
// once done() holds, so the event queue can drain (run takes the final
// sample).
func (r *rig) sample(tl *obs.Timeline, probe func() obs.TimelineRow, done func() bool) {
	r.timelines = append(r.timelines, tl)
	tl.SetProbe(probe)
	tl.Sample()
	var tick *des.Ticker
	tick = des.NewTicker(r.sim, tl.Interval(), func() {
		if done() {
			tick.Stop()
			return
		}
		tl.Sample()
	})
}

// start starts every client's producer.
func (r *rig) start() {
	for _, c := range r.clients {
		c.prod.Start()
	}
}

// eventCap bounds the events of every run, with or without a sim-time
// horizon: a zero-delay reschedule loop advances no clock, so only a
// count stops it. It is a variable so that tests can lower it.
var eventCap uint64 = 2_000_000_000

// run drives the simulation to the horizon, or without one until the
// event queue drains, under the runaway cap either way, and reports the
// first runtime injection error.
func (r *rig) run(maxSim time.Duration) error {
	var err error
	if maxSim > 0 {
		err = r.sim.RunUntilLimit(maxSim, eventCap)
	} else {
		err = r.sim.RunLimit(eventCap)
	}
	if err != nil {
		// The cap stops a run only while an event is pending: name it.
		owner, _ := r.sim.NextEvent()
		return fmt.Errorf("event cap exceeded at sim time %v, next event calls %s (runaway simulation?): %w", r.sim.Now(), owner, err)
	}
	if r.cfgErr != nil {
		return fmt.Errorf("scheduled reconfiguration or fault injection: %w", r.cfgErr)
	}
	// Final samples after the simulation drained: a sampler stops at the
	// first tick past completion, but late appends (a spurious retry's
	// first copy landing after the last record resolved) must still fall
	// inside a row for column sums to equal the counters.
	for _, tl := range r.timelines {
		tl.Sample()
	}
	return nil
}

// groupRuns is the end-of-run summary of every consumer group, in join
// order: evidence, application stream, durable committed offsets, lag
// and the coordinator's per-group ledger.
func (r *rig) groupRuns() ([]GroupRun, error) {
	var runs []GroupRun
	for _, grp := range r.groups {
		ev := grp.Evidence()
		gr := GroupRun{
			ID:           ev.Group,
			Evidence:     ev,
			ConsumedKeys: grp.ConsumedKeys(),
			Committed:    make([]int64, grp.Partitions()),
			Stats:        r.co.GroupStats(ev.Group),
		}
		for p := range gr.Committed {
			off, err := grp.Committed(int32(p))
			switch {
			case err == nil:
				gr.Committed[p] = off
			case errors.Is(err, consumer.ErrNoCommit):
				gr.Committed[p] = -1
			default:
				return nil, fmt.Errorf("final committed offset [%d] group %s: %w", p, ev.Group, err)
			}
		}
		// Authoritative lag when the cluster can answer; the group's own
		// durable view when a partition ended the run leaderless.
		if lags, err := grp.LagByPartition(); err == nil {
			gr.Lag = lags
		} else {
			gr.Lag = slices.Clone(grp.FencedLag())
		}
		runs = append(runs, gr)
	}
	return runs, nil
}

// VerifierInputs shapes the group's summary for the end-to-end and
// cooperative-rebalance checkers. regs are the run's committed-offset
// regressions (they are per coordinator, not per group).
func (g GroupRun) VerifierInputs(sem producer.Semantics, offsetsRF int, plan chaos.Plan, regs []coordinator.OffsetRegression) (chaos.E2EInput, chaos.CoopInput) {
	return chaos.E2EInput{
			Semantics:          sem,
			OffsetsReplication: offsetsRF,
			Plan:               plan,
			Evidence:           g.Evidence,
			ConsumedKeys:       g.ConsumedKeys,
			FinalCommitted:     g.Committed,
			Regressions:        regs,
		}, chaos.CoopInput{
			OffsetsReplication: offsetsRF,
			Plan:               plan,
			Evidence:           g.Evidence,
			Regressions:        regs,
		}
}
