// Package netem emulates the network path between a Kafka producer and
// the cluster, playing the role NetEm plays in the paper's Docker testbed
// (Sec. III-E): configurable propagation delay, random or bursty packet
// loss, finite bandwidth with a bounded device queue, and runtime
// reconfiguration for time-varying scenarios (Fig. 9).
package netem

import (
	"fmt"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/obs"
	"kafkarel/internal/stats"
)

// Counters aggregates what happened to packets offered to a link.
type Counters struct {
	Offered       uint64 // packets handed to Send
	Delivered     uint64 // packets that reached the far end
	LostRandom    uint64 // dropped by the loss model
	LostOverflow  uint64 // dropped because the device queue was full
	BytesOffered  uint64
	BytesDelivery uint64
}

// Config describes one direction of a link. The zero value is a lossless,
// delay-free, infinite-bandwidth wire.
type Config struct {
	// Delay samples per-packet propagation delay in milliseconds.
	// nil means no propagation delay.
	Delay stats.Sampler
	// Loss decides per-packet drops. nil means no loss.
	Loss stats.LossModel
	// Bandwidth in bits per second. 0 means infinite (no serialisation
	// delay and no queue).
	Bandwidth float64
	// QueueLimit bounds the number of packets waiting for serialisation
	// when Bandwidth > 0. 0 means unlimited.
	QueueLimit int
	// Obs attaches the per-run observability bundle; the link uses its
	// tracer. nil disables tracing for this link (Counters always count).
	Obs *obs.Obs
}

// Link is one direction of an emulated network path. It is driven by a
// des.Simulator and is not safe for concurrent use (the simulator is
// single-threaded by design).
type Link struct {
	sim  *des.Simulator
	cfg  Config
	cnt  Counters
	free time.Duration // when the serialiser becomes idle
	last time.Duration // latest delivery time handed out (FIFO enforcement)
	q    int           // packets queued for serialisation

	// Fault overlays (see SetFaultLoss / SetFaultDelay): transient
	// chaos-window conditions stacked on top of the configured models so
	// that clearing a fault restores the base configuration exactly.
	faultLoss  stats.LossModel
	faultDelay stats.Sampler

	trace *obs.Tracer

	// deliveries recycles delivery jobs: a packet in flight costs no
	// allocation in steady state. Jobs are recycled when they fire; jobs
	// for dropped packets are never created.
	deliveries des.FreeList[delivery]
}

// delivery is one scheduled packet working its way to the far end.
type delivery struct {
	l    *Link
	size int
	fn   func(arg any, last bool)
	arg  any
}

func (l *Link) putDelivery(d *delivery) {
	*d = delivery{}
	l.deliveries.Put(d)
}

// runDelivery fires when a packet reaches the far end. The job is
// recycled before the callback runs (its fields are copied out first), so
// the callback may immediately trigger further sends.
func runDelivery(a any) {
	d := a.(*delivery)
	l := d.l
	fn, arg, size := d.fn, d.arg, d.size
	l.putDelivery(d)
	l.cnt.Delivered++
	l.cnt.BytesDelivery += uint64(size)
	fn(arg, true)
}

// linkDecQ releases one device-queue slot when serialisation finishes.
func linkDecQ(a any) { a.(*Link).q-- }

// NewLink creates one direction of a path.
func NewLink(sim *des.Simulator, cfg Config) (*Link, error) {
	if sim == nil {
		return nil, fmt.Errorf("netem: nil simulator")
	}
	if cfg.Bandwidth < 0 {
		return nil, fmt.Errorf("netem: negative bandwidth %v", cfg.Bandwidth)
	}
	if cfg.QueueLimit < 0 {
		return nil, fmt.Errorf("netem: negative queue limit %d", cfg.QueueLimit)
	}
	return &Link{sim: sim, cfg: cfg, trace: cfg.Obs.Tracer()}, nil
}

// Counters returns a snapshot of the link statistics.
func (l *Link) Counters() Counters { return l.cnt }

// SetDelay swaps the propagation-delay model at runtime.
func (l *Link) SetDelay(d stats.Sampler) { l.cfg.Delay = d }

// SetLoss swaps the loss model at runtime.
func (l *Link) SetLoss(m stats.LossModel) { l.cfg.Loss = m }

// SetFaultLoss overlays a transient loss model on top of the configured
// one: a packet is dropped when either model says so. nil clears the
// overlay. Chaos fault windows (partitions, loss bursts) use this so the
// base network condition survives the window untouched.
func (l *Link) SetFaultLoss(m stats.LossModel) { l.faultLoss = m }

// SetFaultDelay overlays extra propagation delay added to the configured
// delay model's samples (a delay spike). nil clears the overlay.
func (l *Link) SetFaultDelay(d stats.Sampler) { l.faultDelay = d }

// LossRate reports the effective long-run loss probability: the
// configured model combined with any fault overlay (independent drops).
func (l *Link) LossRate() float64 {
	switch {
	case l.cfg.Loss == nil && l.faultLoss == nil:
		return 0
	case l.faultLoss == nil:
		return l.cfg.Loss.Rate()
	case l.cfg.Loss == nil:
		return l.faultLoss.Rate()
	}
	return 1 - (1-l.cfg.Loss.Rate())*(1-l.faultLoss.Rate())
}

// State returns the link's instantaneous state for a timeline sampler:
// the loss chain's state (0 good, 1 bad), the propagation delay in
// milliseconds and the configured long-run loss rate (LossRate). It
// never draws from the configured models' random sources — that would
// perturb the run being observed — so the delay is reported only when
// every active sampler is deterministic (stats.Constant; -1 otherwise)
// and the chain state only when the loss model is a Gilbert-Elliot
// chain (-1 otherwise; the Fig. 9 traces resample the chain per segment
// into Bernoulli models, which have no instantaneous state).
func (l *Link) State() (geState int, delayMs, cfgLoss float64) {
	// A fault-overlay spike adds onto the configured delay.
	known := true
	for _, d := range [...]stats.Sampler{l.cfg.Delay, l.faultDelay} {
		if c, ok := d.(stats.Constant); ok {
			delayMs += c.Value
		} else if d != nil {
			known = false
		}
	}
	if !known {
		delayMs = -1
	}
	// Chain state: a fault overlay's burst chain takes precedence over a
	// configured one (at most one is expected to be a GE model at a time).
	geState = -1
	for _, m := range [...]stats.LossModel{l.faultLoss, l.cfg.Loss} {
		if ge, ok := m.(*stats.GilbertElliot); ok {
			geState = 0
			if ge.Bad() {
				geState = 1
			}
			break
		}
	}
	return geState, delayMs, l.LossRate()
}

// SendFn offers a packet of size bytes to the link. If the packet
// survives the loss model and the device queue, fn(arg, true) fires at
// the far end after serialisation and propagation delay — a stable
// callback plus an opaque arg, so a packet costs no closure. SendFn never
// calls fn synchronously. A packet is delivered at most once, so the
// callback's bool is always true; it stays in the signature because the
// frozen bench/ passes a func(any, bool) (ROADMAP 5(a)).
//
// The result reports whether the link took the packet: false means it was
// dropped here (LostRandom or LostOverflow grew), fn will never fire, and
// whatever arg owns is the caller's to release.
func (l *Link) SendFn(size int, fn func(arg any, last bool), arg any) bool {
	if fn == nil {
		panic("netem: SendFn with nil deliver callback")
	}
	if size < 0 {
		panic(fmt.Sprintf("netem: negative packet size %d", size))
	}
	l.cnt.Offered++
	l.cnt.BytesOffered += uint64(size)

	// Fault overlay first: a partition window drops everything without
	// advancing the base model's chain. Overlay drops land in LostRandom
	// so the timeline's loss accounting stays on the fixed schema.
	if (l.faultLoss != nil && l.faultLoss.Drop()) ||
		(l.cfg.Loss != nil && l.cfg.Loss.Drop()) {
		l.cnt.LostRandom++
		l.trace.Emit(obs.LayerNetem, obs.EvPktLoss, 0, int64(size), 0, "")
		return false
	}

	// Serialisation, delay and FIFO ordering: a single TCP path through
	// one queue delivers in order, which is what the paper's testbed
	// exercises.
	now := l.sim.Now()
	txDone := now
	if l.cfg.Bandwidth > 0 {
		if l.cfg.QueueLimit > 0 && l.q >= l.cfg.QueueLimit {
			l.cnt.LostOverflow++
			l.trace.Emit(obs.LayerNetem, obs.EvPktOverflow, 0, int64(size), 0, "")
			return false
		}
		start := now
		if l.free > start {
			start = l.free
		}
		tx := time.Duration(float64(size*8) / l.cfg.Bandwidth * float64(time.Second))
		txDone = start + tx
		l.free = txDone
		l.q++
		l.sim.ScheduleFunc(txDone, linkDecQ, l)
	}

	var prop time.Duration
	if l.cfg.Delay != nil {
		ms := l.cfg.Delay.Sample()
		if ms > 0 {
			prop = time.Duration(ms * float64(time.Millisecond))
		}
	}
	if l.faultDelay != nil {
		if ms := l.faultDelay.Sample(); ms > 0 {
			prop += time.Duration(ms * float64(time.Millisecond))
		}
	}
	at := txDone + prop
	if at < l.last {
		at = l.last
	}
	l.last = at
	d := l.deliveries.Get()
	d.l = l
	d.size = size
	d.fn = fn
	d.arg = arg
	l.sim.ScheduleFunc(at, runDelivery, d)
	return true
}

// Path is a duplex producer↔cluster connection: a forward (request) and a
// reverse (response) direction.
type Path struct {
	Fwd *Link
	Rev *Link
}

// NewPath builds a duplex path with the same configuration in both
// directions but independent state (queues, loss-model chains).
func NewPath(sim *des.Simulator, fwd, rev Config) (*Path, error) {
	f, err := NewLink(sim, fwd)
	if err != nil {
		return nil, fmt.Errorf("netem: forward link: %w", err)
	}
	r, err := NewLink(sim, rev)
	if err != nil {
		return nil, fmt.Errorf("netem: reverse link: %w", err)
	}
	return &Path{Fwd: f, Rev: r}, nil
}

// SetDelay swaps the delay model on both directions.
func (p *Path) SetDelay(d stats.Sampler) {
	p.Fwd.SetDelay(d)
	p.Rev.SetDelay(d)
}

// SetLoss swaps the loss model on both directions. The two directions
// share the model instance so that a burst (Gilbert-Elliot Bad state)
// affects requests and responses together, as it would on a real duplex
// radio link.
func (p *Path) SetLoss(m stats.LossModel) {
	p.Fwd.SetLoss(m)
	p.Rev.SetLoss(m)
}
