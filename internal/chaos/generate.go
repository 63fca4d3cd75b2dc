package chaos

import (
	"fmt"
	"math/rand/v2"
	"time"

	"kafkarel/internal/producer"
)

// GenConfig bounds the campaign generator's plan sampling.
type GenConfig struct {
	// Brokers is the cluster size faults may target.
	Brokers int
	// Semantics is recorded by campaigns and read by nothing: the
	// generator lays every plan's broker outages out strictly
	// sequentially (at most one broker down at any time, so acknowledged
	// data always survives on a live replica) whatever the semantics.
	// The field stays only because the frozen bench/ sets it; it goes
	// with the next [benchmark] PR (ROADMAP 5(a)).
	Semantics producer.Semantics
	// Horizon is the window faults are placed in; every fault, recoveries
	// included, completes before it. Zero takes a 2 s default.
	Horizon time.Duration
	// MaxFaults caps the faults per plan (default 5, minimum 1).
	MaxFaults int
	// Unclean permits unclean restarts (needs a broker flush interval to
	// bite; without one they degenerate to clean crashes).
	Unclean bool
	// ConsumerMembers, when positive, adds consumer-member crashes
	// targeting join-order indices [0, ConsumerMembers) to the sampled
	// kinds — the rebalance-under-fire ingredient of end-to-end trials.
	ConsumerMembers int
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Brokers <= 0 {
		c.Brokers = 3
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 5
	}
	return c
}

// GeneratePlan samples a random fault plan from the seed. The same
// (seed, config) pair always yields the same plan — the reproducibility
// contract violating trials are replayed through.
//
// Faults of each resource class (broker outages, loss overlays, delay
// overlays, slowdowns) are laid out sequentially with gaps, so generated
// plans always pass Validate; crashes carry explicit recovery durations,
// leaving every broker up again before the horizon.
func GeneratePlan(seed uint64, cfg GenConfig) Plan {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))

	kinds := []Kind{BrokerCrash, Partition, LossBurst, DelaySpike, ConnReset, BrokerSlow}
	if cfg.Unclean {
		kinds = append(kinds, UncleanRestart)
	}
	if cfg.ConsumerMembers > 0 {
		kinds = append(kinds, ConsumerCrash)
	}

	// Independent time cursors per resource class keep windows of the
	// same class from overlapping; classes interleave freely.
	dur := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int64N(int64(hi-lo)+1))
	}
	cursors := map[string]time.Duration{}
	place := func(class string, want time.Duration) (time.Duration, bool) {
		// Random gap after the class's previous window, bounded so the
		// window still fits before the horizon.
		start := cursors[class] + dur(10*time.Millisecond, 150*time.Millisecond)
		if start+want >= cfg.Horizon {
			return 0, false
		}
		cursors[class] = start + want
		return start, true
	}

	n := 1 + rng.IntN(cfg.MaxFaults)
	var plan Plan
	for i := 0; i < n; i++ {
		k := kinds[rng.IntN(len(kinds))]
		var f Fault
		switch k {
		case BrokerCrash, UncleanRestart:
			d := dur(100*time.Millisecond, 500*time.Millisecond)
			at, ok := place("broker", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Broker: int32(rng.IntN(cfg.Brokers))}
		case Partition:
			d := dur(50*time.Millisecond, 300*time.Millisecond)
			at, ok := place("loss", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Direction: Direction(rng.IntN(3))}
		case LossBurst:
			d := dur(50*time.Millisecond, 400*time.Millisecond)
			at, ok := place("loss", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Direction: Direction(rng.IntN(3)),
				LossRate: 0.05 + 0.45*rng.Float64()}
		case DelaySpike:
			d := dur(50*time.Millisecond, 400*time.Millisecond)
			at, ok := place("delay", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Direction: Direction(rng.IntN(3)),
				DelayMs: 20 + 180*rng.Float64()}
		case ConnReset:
			at, ok := place("conn", 0)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at}
		case BrokerSlow:
			d := dur(50*time.Millisecond, 400*time.Millisecond)
			at, ok := place("slow", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Broker: int32(rng.IntN(cfg.Brokers)),
				Slowdown: 2 + 8*rng.Float64()}
		case ConsumerCrash:
			d := dur(100*time.Millisecond, 400*time.Millisecond)
			at, ok := place("consumer", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Member: int32(rng.IntN(cfg.ConsumerMembers))}
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}

// CoopGenConfig bounds the cooperative-rebalance churn generator. Plans
// are membership-churn heavy — consumer crashes with restart windows
// across every group, each group churning independently — mixed with
// broker outages and slowdowns so rebalances race replication stalls and
// commit-round failures, the scenario where the eager protocol's
// redelivery storms live.
type CoopGenConfig struct {
	// Brokers is the cluster size faults may target (default 3).
	Brokers int
	// Groups is the consumer-group fan-out faults spread over (default 1).
	Groups int
	// MembersPerGroup is each group's member count (default 3; crashes
	// target join-order indices [0, MembersPerGroup)).
	MembersPerGroup int
	// Horizon is the window faults complete within (default 2 s).
	Horizon time.Duration
	// MaxFaults caps the faults per plan (default 6, minimum 1).
	MaxFaults int
}

func (c CoopGenConfig) withDefaults() CoopGenConfig {
	if c.Brokers <= 0 {
		c.Brokers = 3
	}
	if c.Groups <= 0 {
		c.Groups = 1
	}
	if c.MembersPerGroup <= 0 {
		c.MembersPerGroup = 3
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 6
	}
	return c
}

// GenerateCoopPlan samples a churn-campaign fault plan: pure in
// (seed, config), always valid (each group's crash windows lie on its
// own sequential cursor, so a down member is never crashed again; every
// member and broker recovers before the horizon). Consumer crashes are
// drawn twice as often as any broker kind — the point of the campaign
// is rebalance pressure, the broker faults are there to make commit
// rounds fail underneath it. Half the broker outages take down a second
// broker inside the first one's window: with min.insync.replicas = 2 on
// a three-broker cluster that leaves the offsets log readable but
// unwritable, the window where an eager rebalance must discard
// positions it cannot flush — the redelivery-storm ingredient.
func GenerateCoopPlan(seed uint64, cfg CoopGenConfig) Plan {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(seed, 0x5851F42D4C957F2D))

	kinds := []Kind{ConsumerCrash, ConsumerCrash, BrokerCrash, BrokerSlow}

	dur := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int64N(int64(hi-lo)+1))
	}
	cursors := map[string]time.Duration{}
	place := func(class string, want time.Duration) (time.Duration, bool) {
		start := cursors[class] + dur(10*time.Millisecond, 150*time.Millisecond)
		if start+want >= cfg.Horizon {
			return 0, false
		}
		cursors[class] = start + want
		return start, true
	}

	var plan Plan

	// storm schedules one redelivery-storm cycle anchored at a broker
	// outage window [at, at+d): a second broker dies inside it — with
	// min.insync.replicas = 2 on three brokers the offsets log stays
	// readable but unwritable for the middle half of the window — and a
	// consumer sharing the first broker's host dies with it, restarting
	// halfway through, so its rejoin rebalance always lands while commit
	// rounds are failing. The correlated crash rides its group's own
	// crash cursor only when the slot is free, keeping churn sequencing
	// valid; the nested outage targets a different broker, so per-broker
	// crash sequencing validates too.
	storm := func(at, d time.Duration, b int32) {
		if cfg.Brokers < 2 {
			return
		}
		b2 := (b + 1 + int32(rng.IntN(cfg.Brokers-1))) % int32(cfg.Brokers)
		plan.Faults = append(plan.Faults, Fault{
			Kind: BrokerCrash, At: at + d/4, Duration: d / 2, Broker: b2,
		})
		cg := rng.IntN(cfg.Groups)
		cm := rng.IntN(cfg.MembersPerGroup)
		class := fmt.Sprintf("consumer-g%d", cg)
		if cursors[class] <= at {
			cursors[class] = at + d/2
			plan.Faults = append(plan.Faults, Fault{
				Kind: ConsumerCrash, At: at, Duration: d / 2,
				Group: int32(cg), Member: int32(cm),
			})
		}
	}

	// Every plan opens with one full storm cycle: the campaign exists to
	// measure rebalance behaviour while commits fail underneath, so that
	// scenario is a fixture, not a coin flip. The outer window is kept
	// wide enough (>= 350 ms) that the restarted member's whole rejoin —
	// heartbeat detection included — lands inside the unwritable half.
	d0 := dur(350*time.Millisecond, 500*time.Millisecond)
	if at, ok := place("broker", d0); ok {
		b := int32(rng.IntN(cfg.Brokers))
		plan.Faults = append(plan.Faults, Fault{Kind: BrokerCrash, At: at, Duration: d0, Broker: b})
		storm(at, d0, b)
	}

	n := 1 + rng.IntN(cfg.MaxFaults)
	for i := 0; i < n; i++ {
		k := kinds[rng.IntN(len(kinds))]
		var f Fault
		switch k {
		case ConsumerCrash:
			g := rng.IntN(cfg.Groups)
			d := dur(100*time.Millisecond, 400*time.Millisecond)
			at, ok := place(fmt.Sprintf("consumer-g%d", g), d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d,
				Group: int32(g), Member: int32(rng.IntN(cfg.MembersPerGroup))}
		case BrokerCrash:
			d := dur(100*time.Millisecond, 500*time.Millisecond)
			at, ok := place("broker", d)
			if !ok {
				continue
			}
			b := int32(rng.IntN(cfg.Brokers))
			f = Fault{Kind: k, At: at, Duration: d, Broker: b}
			if rng.IntN(2) == 0 {
				storm(at, d, b)
			}
		case BrokerSlow:
			d := dur(50*time.Millisecond, 400*time.Millisecond)
			at, ok := place("slow", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Broker: int32(rng.IntN(cfg.Brokers)),
				Slowdown: 2 + 8*rng.Float64()}
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}

// TxnGenConfig bounds the transactional campaign generator. Plans mix
// broker outages (clean and unclean), broker slowdowns, processor
// crashes mid-transaction, and duplicate-incarnation zombie races —
// the fault surface of the exactly-once pipeline. Network kinds are
// excluded: the transactional testbed drives the cluster directly.
type TxnGenConfig struct {
	// Brokers is the cluster size faults may target (default 3).
	Brokers int
	// Processors is the transactional-processor fleet size (default 2).
	Processors int
	// Horizon is the window faults complete within (default 2 s).
	Horizon time.Duration
	// MaxFaults caps the faults per plan (default 5, minimum 1).
	MaxFaults int
	// Unclean permits unclean broker restarts.
	Unclean bool
}

func (c TxnGenConfig) withDefaults() TxnGenConfig {
	if c.Brokers <= 0 {
		c.Brokers = 3
	}
	if c.Processors <= 0 {
		c.Processors = 2
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Second
	}
	if c.MaxFaults <= 0 {
		c.MaxFaults = 5
	}
	return c
}

// GenerateTxnPlan samples a fault plan for a transactional trial. Like
// GeneratePlan it is pure in (seed, config), lays each resource class
// out sequentially so plans always validate, keeps broker outages
// strictly sequential (acknowledged transactional data must survive on
// a live replica), and recovers every broker and processor before the
// horizon.
func GenerateTxnPlan(seed uint64, cfg TxnGenConfig) Plan {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewPCG(seed, 0x7F4A7C159E3779B9))

	kinds := []Kind{BrokerCrash, BrokerSlow, ProcessorCrash, ProcessorZombie}
	if cfg.Unclean {
		kinds = append(kinds, UncleanRestart)
	}

	dur := func(lo, hi time.Duration) time.Duration {
		return lo + time.Duration(rng.Int64N(int64(hi-lo)+1))
	}
	cursors := map[string]time.Duration{}
	place := func(class string, want time.Duration) (time.Duration, bool) {
		start := cursors[class] + dur(10*time.Millisecond, 150*time.Millisecond)
		if start+want >= cfg.Horizon {
			return 0, false
		}
		cursors[class] = start + want
		return start, true
	}

	n := 1 + rng.IntN(cfg.MaxFaults)
	var plan Plan
	for i := 0; i < n; i++ {
		k := kinds[rng.IntN(len(kinds))]
		var f Fault
		switch k {
		case BrokerCrash, UncleanRestart:
			d := dur(100*time.Millisecond, 500*time.Millisecond)
			at, ok := place("broker", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Broker: int32(rng.IntN(cfg.Brokers))}
		case BrokerSlow:
			d := dur(50*time.Millisecond, 400*time.Millisecond)
			at, ok := place("slow", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Broker: int32(rng.IntN(cfg.Brokers)),
				Slowdown: 2 + 8*rng.Float64()}
		case ProcessorCrash:
			d := dur(50*time.Millisecond, 300*time.Millisecond)
			at, ok := place("proc", d)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Duration: d, Member: int32(rng.IntN(cfg.Processors))}
		case ProcessorZombie:
			at, ok := place("proc", 0)
			if !ok {
				continue
			}
			f = Fault{Kind: k, At: at, Member: int32(rng.IntN(cfg.Processors))}
		}
		plan.Faults = append(plan.Faults, f)
	}
	return plan
}
