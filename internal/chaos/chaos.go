// Package chaos is the fault-injection engine: a declarative, sim-time
// fault-plan DSL generalising the testbed's ad-hoc broker-failure list
// into composable timed faults across every layer (broker crashes and
// unclean restarts, network partitions, delay spikes, burst-loss windows,
// connection resets, degraded brokers), a seeded campaign generator that
// samples random plans, and a delivery-invariant checker that verifies
// each trial's end-to-end evidence against the guarantees the paper's
// semantics promise (Sec. II; the future-work "more failure scenarios").
//
// Everything is deterministic: a plan is pure data, scheduling draws no
// randomness except loss-model chains seeded from the plan seed, so a
// violating trial reproduces from its (plan seed, workload seed) pair
// alone.
package chaos

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/consumer"
	"kafkarel/internal/des"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
)

// Kind is a fault's type.
type Kind int

// Fault kinds. Window kinds (Partition, LossBurst, DelaySpike,
// BrokerSlow) are active for Duration; BrokerCrash and UncleanRestart
// recover automatically after Duration when it is positive, otherwise
// they persist until a matching BrokerRecover; ConnReset and
// BrokerRecover are instantaneous.
const (
	// BrokerCrash stops a broker cleanly (shutdown fsync included).
	BrokerCrash Kind = iota + 1
	// BrokerRecover restarts a broker and catches its log up.
	BrokerRecover
	// UncleanRestart kills a broker without the shutdown fsync: the
	// unflushed log tail is destroyed — the real acks=1 data-loss window.
	UncleanRestart
	// Partition severs the producer-broker network (loss = 1.0) for the
	// window.
	Partition
	// LossBurst overlays a Gilbert-Elliot burst-loss process on the
	// network for the window.
	LossBurst
	// DelaySpike adds constant extra propagation delay for the window.
	DelaySpike
	// ConnReset forcibly breaks the producer's transport connection.
	ConnReset
	// BrokerSlow scales a broker's append service time for the window.
	BrokerSlow
	// ConsumerCrash kills a consumer-group member (by join-order index):
	// its in-memory positions vanish and the coordinator only notices
	// when the session expires. A positive Duration restarts it — with a
	// fresh member identity — at the window's end; zero leaves it down.
	ConsumerCrash
	// ProcessorCrash kills a transactional processor (by index)
	// mid-transaction: its in-flight operations stop, its open
	// transaction is left dangling for the coordinator to abort. A
	// positive Duration restarts it — a fresh incarnation that
	// re-initialises its transactional.id, fencing the dead one — at the
	// window's end; zero leaves it down.
	ProcessorCrash
	// ProcessorZombie starts a duplicate incarnation of a transactional
	// processor while the old one keeps running — the
	// duplicate-transactional.id race. The new incarnation's
	// InitProducerId bumps the epoch; every later write or commit by the
	// zombie must be fenced.
	ProcessorZombie
)

var kindNames = map[Kind]string{
	BrokerCrash:     "broker-crash",
	BrokerRecover:   "broker-recover",
	UncleanRestart:  "unclean-restart",
	Partition:       "partition",
	LossBurst:       "loss-burst",
	DelaySpike:      "delay-spike",
	ConnReset:       "conn-reset",
	BrokerSlow:      "broker-slow",
	ConsumerCrash:   "consumer-crash",
	ProcessorCrash:  "processor-crash",
	ProcessorZombie: "processor-zombie",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Direction selects which side of the emulated path a network fault
// afflicts.
type Direction int

// Directions. DirBoth is the zero value: faults hit requests and
// responses alike unless narrowed.
const (
	DirBoth Direction = iota
	DirForward
	DirReverse
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirBoth:
		return "both"
	case DirForward:
		return "fwd"
	case DirReverse:
		return "rev"
	default:
		return fmt.Sprintf("dir(%d)", int(d))
	}
}

// Fault is one timed fault. Which fields matter depends on Kind; the
// rest are ignored.
type Fault struct {
	Kind Kind
	// At is the virtual start time.
	At time.Duration
	// Duration is the fault window. For BrokerCrash/UncleanRestart a
	// positive duration schedules the recovery automatically; zero leaves
	// the broker down until an explicit BrokerRecover.
	Duration time.Duration
	// Broker targets broker faults.
	Broker int32
	// Direction narrows network faults to one side of the path.
	Direction Direction
	// LossRate is LossBurst's long-run loss probability, in (0, 1).
	LossRate float64
	// DelayMs is DelaySpike's added propagation delay.
	DelayMs float64
	// Slowdown is BrokerSlow's service-time multiplier, > 1.
	Slowdown float64
	// Member targets ConsumerCrash at a group member by join-order index,
	// and ProcessorCrash/ProcessorZombie at a transactional processor by
	// partition index.
	Member int32
	// Group targets ConsumerCrash at one consumer group by index into
	// Targets.Groups (0 for a single group).
	Group int32
}

// windowed reports whether the fault occupies a time window whose end
// must be scheduled.
func (f Fault) windowed() bool {
	switch f.Kind {
	case Partition, LossBurst, DelaySpike, BrokerSlow:
		return true
	case BrokerCrash, UncleanRestart, ConsumerCrash, ProcessorCrash:
		return f.Duration > 0
	default:
		return false
	}
}

// end returns the fault's end time (At for instantaneous faults).
func (f Fault) end() time.Duration {
	if f.windowed() {
		return f.At + f.Duration
	}
	return f.At
}

// String renders the fault compactly for scorecards and annotations.
func (f Fault) String() string {
	switch f.Kind {
	case BrokerCrash, UncleanRestart:
		if f.Duration > 0 {
			return fmt.Sprintf("%s b%d @%v+%v", f.Kind, f.Broker, f.At, f.Duration)
		}
		return fmt.Sprintf("%s b%d @%v", f.Kind, f.Broker, f.At)
	case BrokerRecover:
		return fmt.Sprintf("%s b%d @%v", f.Kind, f.Broker, f.At)
	case BrokerSlow:
		return fmt.Sprintf("%s b%d x%.3g @%v+%v", f.Kind, f.Broker, f.Slowdown, f.At, f.Duration)
	case Partition:
		return fmt.Sprintf("%s %s @%v+%v", f.Kind, f.Direction, f.At, f.Duration)
	case LossBurst:
		return fmt.Sprintf("%s %s p=%.3g @%v+%v", f.Kind, f.Direction, f.LossRate, f.At, f.Duration)
	case DelaySpike:
		return fmt.Sprintf("%s %s +%.3gms @%v+%v", f.Kind, f.Direction, f.DelayMs, f.At, f.Duration)
	case ConnReset:
		return fmt.Sprintf("%s @%v", f.Kind, f.At)
	case ConsumerCrash:
		tgt := fmt.Sprintf("c%d", f.Member)
		if f.Group > 0 {
			tgt = fmt.Sprintf("g%d/c%d", f.Group, f.Member)
		}
		if f.Duration > 0 {
			return fmt.Sprintf("%s %s @%v+%v", f.Kind, tgt, f.At, f.Duration)
		}
		return fmt.Sprintf("%s %s @%v", f.Kind, tgt, f.At)
	case ProcessorCrash:
		if f.Duration > 0 {
			return fmt.Sprintf("%s t%d @%v+%v", f.Kind, f.Member, f.At, f.Duration)
		}
		return fmt.Sprintf("%s t%d @%v", f.Kind, f.Member, f.At)
	case ProcessorZombie:
		return fmt.Sprintf("%s t%d @%v", f.Kind, f.Member, f.At)
	default:
		return fmt.Sprintf("%s @%v", f.Kind, f.At)
	}
}

// Plan is a fault schedule: pure data, independent of any simulation.
type Plan struct {
	Faults []Fault
}

// Count returns how many faults of the given kind the plan holds.
func (p Plan) Count(k Kind) int {
	n := 0
	for _, f := range p.Faults {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// HasBrokerFaults reports whether the plan downs any broker — the
// classifier's gate for expected acked-data loss.
func (p Plan) HasBrokerFaults() bool {
	return p.Count(BrokerCrash) > 0 || p.Count(UncleanRestart) > 0
}

// HasProcessorFaults reports whether the plan crashes or duplicates any
// transactional processor.
func (p Plan) HasProcessorFaults() bool {
	return p.Count(ProcessorCrash) > 0 || p.Count(ProcessorZombie) > 0
}

// affects reports whether the fault touches the given path side.
func affects(d Direction, side Direction) bool {
	return d == DirBoth || d == side
}

// Validate checks plan well-formedness against a broker count:
// parameter ranges, broker IDs, no overlapping loss-overlay or
// delay-overlay windows per link direction (clearing an overlay restores
// the base configuration, so stacked windows would end early), no
// overlapping slowdown windows per broker, and crash/recover sequencing
// (no crash of a down broker, no recovery of an up one).
func (p Plan) Validate(brokers int) error {
	type win struct{ start, end time.Duration }
	lossW := map[Direction][]win{}
	delayW := map[Direction][]win{}
	slowW := map[int32][]win{}

	for i, f := range p.Faults {
		if f.At < 0 {
			return fmt.Errorf("chaos: fault %d (%s): negative start time", i, f.Kind)
		}
		switch f.Kind {
		case BrokerCrash, BrokerRecover, UncleanRestart, BrokerSlow:
			if f.Broker < 0 || int(f.Broker) >= brokers {
				return fmt.Errorf("chaos: fault %d (%s): broker %d outside [0, %d)", i, f.Kind, f.Broker, brokers)
			}
		}
		switch f.Kind {
		case Partition, LossBurst, DelaySpike, BrokerSlow:
			if f.Duration <= 0 {
				return fmt.Errorf("chaos: fault %d (%s): window faults need a positive duration", i, f.Kind)
			}
		case BrokerCrash, UncleanRestart, BrokerRecover, ConnReset, ConsumerCrash, ProcessorCrash, ProcessorZombie:
			if f.Duration < 0 {
				return fmt.Errorf("chaos: fault %d (%s): negative duration", i, f.Kind)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %d", i, int(f.Kind))
		}
		switch f.Kind {
		case ConsumerCrash:
			if f.Member < 0 {
				return fmt.Errorf("chaos: fault %d: negative consumer member %d", i, f.Member)
			}
			if f.Group < 0 {
				return fmt.Errorf("chaos: fault %d: negative consumer group %d", i, f.Group)
			}
		case ProcessorCrash, ProcessorZombie:
			if f.Member < 0 {
				return fmt.Errorf("chaos: fault %d: negative processor index %d", i, f.Member)
			}
		case LossBurst:
			if f.LossRate <= 0 || f.LossRate >= 1 {
				return fmt.Errorf("chaos: fault %d: loss rate %v outside (0,1)", i, f.LossRate)
			}
		case DelaySpike:
			if f.DelayMs <= 0 {
				return fmt.Errorf("chaos: fault %d: delay spike needs a positive delay", i)
			}
		case BrokerSlow:
			if f.Slowdown <= 1 {
				return fmt.Errorf("chaos: fault %d: slowdown %v must exceed 1", i, f.Slowdown)
			}
		}
		w := win{f.At, f.end()}
		switch f.Kind {
		case Partition, LossBurst:
			for _, side := range []Direction{DirForward, DirReverse} {
				if affects(f.Direction, side) {
					lossW[side] = append(lossW[side], w)
				}
			}
		case DelaySpike:
			for _, side := range []Direction{DirForward, DirReverse} {
				if affects(f.Direction, side) {
					delayW[side] = append(delayW[side], w)
				}
			}
		case BrokerSlow:
			slowW[f.Broker] = append(slowW[f.Broker], w)
		}
	}

	checkOverlap := func(wins []win, what string) error {
		slices.SortFunc(wins, func(a, b win) int { return cmp.Compare(a.start, b.start) })
		for i := 1; i < len(wins); i++ {
			if wins[i].start < wins[i-1].end {
				return fmt.Errorf("chaos: overlapping %s windows ([%v,%v) and [%v,%v))",
					what, wins[i-1].start, wins[i-1].end, wins[i].start, wins[i].end)
			}
		}
		return nil
	}
	for side, wins := range lossW {
		if err := checkOverlap(wins, "loss-overlay "+side.String()); err != nil {
			return err
		}
	}
	for side, wins := range delayW {
		if err := checkOverlap(wins, "delay-overlay "+side.String()); err != nil {
			return err
		}
	}
	for id, wins := range slowW {
		if err := checkOverlap(wins, fmt.Sprintf("slowdown broker-%d", id)); err != nil {
			return err
		}
	}

	// Crash/recover sequencing per broker: replay events in time order.
	type ev struct {
		at    time.Duration
		crash bool
		idx   int
	}
	seq := map[int32][]ev{}
	cseq := map[[2]int32][]ev{} // keyed (group, member): groups churn independently
	pseq := map[int32][]ev{}
	for i, f := range p.Faults {
		switch f.Kind {
		case BrokerCrash, UncleanRestart:
			seq[f.Broker] = append(seq[f.Broker], ev{f.At, true, i})
			if f.Duration > 0 {
				seq[f.Broker] = append(seq[f.Broker], ev{f.end(), false, i})
			}
		case BrokerRecover:
			seq[f.Broker] = append(seq[f.Broker], ev{f.At, false, i})
		case ConsumerCrash:
			k := [2]int32{f.Group, f.Member}
			cseq[k] = append(cseq[k], ev{f.At, true, i})
			if f.Duration > 0 {
				cseq[k] = append(cseq[k], ev{f.end(), false, i})
			}
		case ProcessorCrash:
			pseq[f.Member] = append(pseq[f.Member], ev{f.At, true, i})
			if f.Duration > 0 {
				pseq[f.Member] = append(pseq[f.Member], ev{f.end(), false, i})
			}
		}
	}
	replay := func(evs []ev, what string, id int32) error {
		slices.SortStableFunc(evs, func(a, b ev) int { return cmp.Compare(a.at, b.at) })
		down := false
		for _, e := range evs {
			if e.crash == down {
				verb := "crash of already-down"
				if !e.crash {
					verb = "recovery of already-up"
				}
				return fmt.Errorf("chaos: fault %d: %s %s %d at %v", e.idx, verb, what, id, e.at)
			}
			down = e.crash
		}
		return nil
	}
	for id, evs := range seq {
		if err := replay(evs, "broker", id); err != nil {
			return err
		}
	}
	for k, evs := range cseq {
		if err := replay(evs, fmt.Sprintf("group-%d consumer", k[0]), k[1]); err != nil {
			return err
		}
	}
	for id, evs := range pseq {
		if err := replay(evs, "processor", id); err != nil {
			return err
		}
	}
	return nil
}

// ProcessorSet is the chaos-facing control surface of a transactional
// processor fleet (the testbed's consume-process-produce pipeline):
// crash an incarnation abruptly, restart a crashed one, or start a
// duplicate incarnation while the old one keeps running.
type ProcessorSet interface {
	// Processors returns the fleet size.
	Processors() int
	// CrashProcessor kills processor i's current incarnation: its
	// in-flight operations stop and its open transaction dangles.
	CrashProcessor(i int) error
	// RestartProcessor starts a fresh incarnation of a crashed processor;
	// its InitProducerId fences the dead one's epoch.
	RestartProcessor(i int) error
	// ZombieProcessor starts a fresh incarnation while the old one keeps
	// running — the duplicate-transactional.id race.
	ZombieProcessor(i int) error
}

// Targets wires a plan into a running simulation: the subsystems each
// fault kind manipulates. Cluster is required for broker faults, Path
// for network faults, Conn for connection resets; a nil target with a
// matching fault is a Schedule error. Timeline (optional) receives fault
// annotations; Seed parameterises loss-burst chains; OnError (optional)
// receives runtime injection failures (e.g. recovering a broker whose
// catch-up read fails).
type Targets struct {
	Sim     *des.Simulator
	Cluster *cluster.Cluster
	Path    *netem.Path
	Conn    *transport.Conn
	// Groups are the ConsumerCrash targets: Fault.Group indexes into it.
	Groups   []*consumer.Group
	Procs    ProcessorSet
	Timeline *obs.Timeline
	Seed     uint64
	OnError  func(error)
}

// consumerGroup resolves a fault's group index against the targets.
func (t Targets) consumerGroup(i int32) *consumer.Group {
	if int(i) < len(t.Groups) {
		return t.Groups[i]
	}
	return nil
}

func (t Targets) fail(err error) {
	if t.OnError != nil && err != nil {
		t.OnError(err)
	}
}

// burstModel builds the LossBurst Gilbert-Elliot chain: the simplified
// Gilbert model (K=1, H=0) with R fixed at 0.25 — mean burst length 4
// packets — and P solved so the stationary loss rate P/(P+R) hits the
// fault's target. The chain's randomness comes from the plan seed and
// the fault's index, so replays are exact.
func burstModel(rate float64, seed uint64, idx int) (stats.LossModel, error) {
	const r = 0.25
	p := rate * r / (1 - rate)
	if p > 1 {
		p = 1
	}
	return stats.NewGilbertElliot(p, r, 1, 0, rand.New(rand.NewPCG(seed, uint64(idx)+0xC4A05)))
}

// Schedule validates the plan against the targets and registers every
// fault with the simulator. Broker failures and recoveries annotate the
// timeline as broker events (the schema the run report already renders);
// network, connection, and slowdown faults annotate as chaos faults.
func Schedule(plan Plan, t Targets) error {
	if t.Sim == nil {
		return fmt.Errorf("chaos: nil simulator")
	}
	brokers := 0
	if t.Cluster != nil {
		brokers = t.Cluster.Brokers()
	}
	if err := plan.Validate(brokers); err != nil {
		return err
	}
	for i, f := range plan.Faults {
		f := f
		switch f.Kind {
		case BrokerCrash, UncleanRestart, BrokerRecover:
			if t.Cluster == nil {
				return fmt.Errorf("chaos: fault %d (%s): no cluster target", i, f.Kind)
			}
		case Partition, LossBurst, DelaySpike:
			if t.Path == nil {
				return fmt.Errorf("chaos: fault %d (%s): no path target", i, f.Kind)
			}
		case ConnReset:
			if t.Conn == nil {
				return fmt.Errorf("chaos: fault %d (%s): no connection target", i, f.Kind)
			}
		case BrokerSlow:
			if t.Cluster == nil {
				return fmt.Errorf("chaos: fault %d (%s): no cluster target", i, f.Kind)
			}
		case ConsumerCrash:
			if t.consumerGroup(f.Group) == nil {
				return fmt.Errorf("chaos: fault %d (%s): no consumer-group target for group %d", i, f.Kind, f.Group)
			}
		case ProcessorCrash, ProcessorZombie:
			if t.Procs == nil {
				return fmt.Errorf("chaos: fault %d (%s): no processor target", i, f.Kind)
			}
		}
		switch f.Kind {
		case BrokerCrash:
			t.Sim.Schedule(f.At, func() {
				if err := t.Cluster.FailBroker(f.Broker); err != nil {
					t.fail(err)
					return
				}
				t.Timeline.Annotate(obs.AnnBrokerEvent, fmt.Sprintf("fail broker %d", f.Broker))
			})
			if f.Duration > 0 {
				scheduleRecover(t, f.end(), f.Broker)
			}
		case UncleanRestart:
			t.Sim.Schedule(f.At, func() {
				if err := t.Cluster.CrashBrokerUnclean(f.Broker); err != nil {
					t.fail(err)
					return
				}
				t.Timeline.Annotate(obs.AnnBrokerEvent, fmt.Sprintf("crash broker %d unclean", f.Broker))
			})
			if f.Duration > 0 {
				scheduleRecover(t, f.end(), f.Broker)
			}
		case BrokerRecover:
			scheduleRecover(t, f.At, f.Broker)
		case Partition:
			scheduleLossWindow(t, f, stats.AlwaysLoss{})
		case LossBurst:
			m, err := burstModel(f.LossRate, t.Seed, i)
			if err != nil {
				return fmt.Errorf("chaos: fault %d: %w", i, err)
			}
			scheduleLossWindow(t, f, m)
		case DelaySpike:
			d := stats.Constant{Value: f.DelayMs}
			onLinks(t, f, func(l *netem.Link) { l.SetFaultDelay(d) },
				func(l *netem.Link) { l.SetFaultDelay(nil) })
		case ConnReset:
			t.Sim.Schedule(f.At, func() {
				t.Conn.Client.InjectFailure("chaos fault")
				t.Timeline.Annotate(obs.AnnFault, f.String())
			})
		case BrokerSlow:
			t.Sim.Schedule(f.At, func() {
				t.Cluster.Broker(f.Broker).SetSlowdown(f.Slowdown)
				t.Timeline.Annotate(obs.AnnFault, f.String())
			})
			t.Sim.Schedule(f.end(), func() {
				t.Cluster.Broker(f.Broker).SetSlowdown(1)
				t.Timeline.Annotate(obs.AnnFault, fmt.Sprintf("%s b%d over", f.Kind, f.Broker))
			})
		case ConsumerCrash:
			grp := t.consumerGroup(f.Group)
			t.Sim.Schedule(f.At, func() {
				if err := grp.CrashMember(int(f.Member)); err != nil {
					t.fail(err)
					return
				}
				t.Timeline.Annotate(obs.AnnFault, f.String())
			})
			if f.Duration > 0 {
				t.Sim.Schedule(f.end(), func() {
					if err := grp.RestartMember(int(f.Member)); err != nil {
						t.fail(err)
						return
					}
					t.Timeline.Annotate(obs.AnnFault, fmt.Sprintf("%s c%d restart", f.Kind, f.Member))
				})
			}
		case ProcessorCrash:
			t.Sim.Schedule(f.At, func() {
				if err := t.Procs.CrashProcessor(int(f.Member)); err != nil {
					t.fail(err)
					return
				}
				t.Timeline.Annotate(obs.AnnFault, f.String())
			})
			if f.Duration > 0 {
				t.Sim.Schedule(f.end(), func() {
					if err := t.Procs.RestartProcessor(int(f.Member)); err != nil {
						t.fail(err)
						return
					}
					t.Timeline.Annotate(obs.AnnFault, fmt.Sprintf("%s t%d restart", f.Kind, f.Member))
				})
			}
		case ProcessorZombie:
			t.Sim.Schedule(f.At, func() {
				if err := t.Procs.ZombieProcessor(int(f.Member)); err != nil {
					t.fail(err)
					return
				}
				t.Timeline.Annotate(obs.AnnFault, f.String())
			})
		}
	}
	return nil
}

func scheduleRecover(t Targets, at time.Duration, id int32) {
	t.Sim.Schedule(at, func() {
		if err := t.Cluster.RecoverBroker(id); err != nil {
			t.fail(err)
			return
		}
		t.Timeline.Annotate(obs.AnnBrokerEvent, fmt.Sprintf("recover broker %d", id))
	})
}

// scheduleLossWindow installs a loss overlay at the fault's start and
// clears it at the end. A single model instance shared by both
// directions yields correlated bursts, as a path-level outage would.
func scheduleLossWindow(t Targets, f Fault, m stats.LossModel) {
	onLinks(t, f, func(l *netem.Link) { l.SetFaultLoss(m) },
		func(l *netem.Link) { l.SetFaultLoss(nil) })
}

// onLinks schedules apply at f.At and clear at f.end() on every link the
// fault's direction covers, with timeline annotations bracketing the
// window.
func onLinks(t Targets, f Fault, apply, clear func(*netem.Link)) {
	var links []*netem.Link
	if affects(f.Direction, DirForward) {
		links = append(links, t.Path.Fwd)
	}
	if affects(f.Direction, DirReverse) {
		links = append(links, t.Path.Rev)
	}
	t.Sim.Schedule(f.At, func() {
		for _, l := range links {
			apply(l)
		}
		t.Timeline.Annotate(obs.AnnFault, f.String())
	})
	t.Sim.Schedule(f.end(), func() {
		for _, l := range links {
			clear(l)
		}
		t.Timeline.Annotate(obs.AnnFault, fmt.Sprintf("%s %s over", f.Kind, f.Direction))
	})
}
