// Package obs is the simulation-time observability subsystem: a
// registry of named counters, gauges and fixed-bucket histograms plus a
// structured event tracer (trace.go), both reading the des virtual
// clock instead of the wall clock.
//
// Design constraints, in order:
//
//   - Cheap enough to stay on by default. Handles are resolved once at
//     construction time; the hot path is a nil check plus a plain
//     integer add (or compare-and-store), with no atomic operation, no
//     allocation and no map lookup.
//   - A no-op implementation when disabled. Every handle method has a
//     nil receiver fast path, so instrumented code calls
//     counter.Inc() unconditionally and a nil *Registry (or nil *Obs)
//     turns the whole subsystem into dead branches.
//   - Deterministic output. Snapshots list metrics in sorted name
//     order and encode to a canonical byte form, so two runs with the
//     same seed produce byte-identical snapshots regardless of worker
//     count or scheduling (the repo-wide determinism contract).
//
// Single-writer contract. A Registry and every handle resolved from it
// belong to the one goroutine running its simulation: that goroutine
// alone registers metrics, writes them, and reads them (Value, Counts,
// Snapshot) while the run is live. Nothing here is synchronised. Another
// goroutine may touch the registry only after the run has finished and
// that fact has reached it through a synchronising hand-off (the
// exprun pool's result channel, a WaitGroup): it takes Snapshot() and
// aggregates the copies (testbed.MetricsSnapshot.Merge). Parallel runs
// therefore each get their own registry, one per simulation, never a
// shared one; `go test -race` is the enforcement.
// Tracer and Timeline carry their own locks and are outside the contract.
//
// The package is zero-dependency (stdlib only) and imported by the DES
// kernel and every protocol layer; it must never import them back.
package obs

import (
	"fmt"
	"sort"
	"time"
)

// Clock abstracts the virtual clock; *des.Simulator satisfies it.
type Clock interface {
	Now() time.Duration
}

// Canonical metric names. Instrumented subsystems register under these
// so that snapshots and the testbed's MetricsSnapshot agree on one
// stable schema.
const (
	// DES kernel.
	MSimEvents   = "des.events_fired"
	MSimQueueMax = "des.queue_max"

	// Network emulation.
	MNetOffered      = "netem.offered"
	MNetDelivered    = "netem.delivered"
	MNetLostRandom   = "netem.lost_random"
	MNetLostOverflow = "netem.lost_overflow"

	// Transport.
	MSegmentsSent    = "transport.segments_sent"
	MRetransmits     = "transport.retransmits"
	MFastRetransmits = "transport.fast_retransmits"
	MRTOTimeouts     = "transport.rto_timeouts"
	MRTOMaxNs        = "transport.rto_max_ns"
	MAcksSent        = "transport.acks_sent"
	MConnBreaks      = "transport.conn_breaks"

	// Producer.
	MRecordsEnqueued = "producer.records_enqueued"
	MBatchesSent     = "producer.batches_sent"
	MBatchRetries    = "producer.batch_retries"
	MRequestTimeouts = "producer.request_timeouts"
	MQueueDepth      = "producer.queue_depth"

	// Broker / cluster.
	MBrokerProduce    = "broker.produce_requests"
	MBrokerAppends    = "broker.appends"
	MBrokerDuplicates = "broker.duplicates_dropped"
	MBrokerDupAppends = "broker.duplicate_appends"
	MBrokerTruncated  = "broker.records_truncated"
	MBrokerUnclean    = "broker.unclean_restarts"
	MReplications     = "cluster.replications"
	// MReplicationFactor is a config-valued gauge (kind max): the
	// replication factor of the run's data topics. Observability-only
	// consumers (the measured KPI) use it to normalize per-replica
	// counters such as duplicate appends down to per-copy values.
	MReplicationFactor = "cluster.replication_factor"

	// Record-latency spans. Each is a sim-time histogram (LatencyBounds,
	// nanoseconds) of the cumulative latency from produce-enqueue to the
	// named stage; the epoch rides on wire.Record.Timestamp, so no span
	// objects exist and the hot path stays allocation-free.
	MSpanSend       = "span.enqueue_to_send"
	MSpanAppend     = "span.enqueue_to_append"
	MSpanReplicated = "span.enqueue_to_replicated"
	MSpanAck        = "span.enqueue_to_ack"
	MSpanDelivery   = "span.enqueue_to_delivery"
	MSpanCommit     = "span.commit"

	// Producer delivery outcomes (denominators of the span histograms).
	MRecordsDelivered = "producer.records_delivered"
	MRecordsLost      = "producer.records_lost"

	// Network payload volume (the measured-φ numerator).
	MNetBytesDelivered = "netem.bytes_delivered"

	// Consumer group.
	MConsumerDelivered   = "consumer.delivered"
	MConsumerRedelivered = "consumer.redelivered"
	MConsumerCommitAcks  = "consumer.commit_acks"
	MConsumerLag         = "consumer.lag"
	// MPausedNs histograms per-partition pause windows: sim-time a
	// partition spent without active polling coverage (each sample is
	// one pause interval). Eager rebalances pause every partition for
	// the join barrier; cooperative ones pause only moving partitions.
	MPausedNs = "consumer.paused_ns"

	// Coordinator.
	MRebalanceNs = "coordinator.rebalance_ns"
)

// ProduceErrorMetric names the per-error-code produce failure counter
// for a wire error code's string form (e.g. "NOT_LEADER" →
// "producer.produce_error.NOT_LEADER").
func ProduceErrorMetric(code string) string {
	return "producer.produce_error." + code
}

// QueueDepthBounds are the fixed bucket upper bounds of the producer
// accumulator-depth histogram (records). The last bucket is the
// overflow bucket, so the histogram has QueueDepthBuckets counts.
var QueueDepthBounds = []int64{0, 1, 2, 4, 8, 16, 32, 64}

// QueueDepthBuckets is len(QueueDepthBounds)+1, as a constant so fixed
// snapshot structs can size arrays with it.
const QueueDepthBuckets = 9

func init() {
	if len(QueueDepthBounds)+1 != QueueDepthBuckets {
		panic("obs: QueueDepthBuckets out of sync with QueueDepthBounds")
	}
	if len(LatencyBounds)+1 != LatencyBuckets {
		panic("obs: LatencyBuckets out of sync with LatencyBounds")
	}
}

// LatencyBounds are the fixed bucket upper bounds of every span
// histogram, in nanoseconds of virtual time: a log-spaced ladder from
// 100 µs to 60 s. The last bucket is the overflow bucket; its exact
// maximum is tracked separately so tail quantiles stay exact.
var LatencyBounds = []int64{
	int64(100 * time.Microsecond),
	int64(250 * time.Microsecond),
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2500 * time.Microsecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(25 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(250 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2500 * time.Millisecond),
	int64(5 * time.Second),
	int64(10 * time.Second),
	int64(30 * time.Second),
	int64(60 * time.Second),
}

// LatencyBuckets is len(LatencyBounds)+1, as a constant so fixed
// snapshot structs can size arrays with it.
const LatencyBuckets = 19

// Counter is a monotone uint64 metric, written by its registry's one
// goroutine (the package's single-writer contract). All methods are
// nil-safe: a nil *Counter is the disabled no-op implementation.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 when disabled).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous int64 metric (single writer, like Counter).
// All methods are nil-safe.
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// SetMax stores v only if it exceeds the current value — a running
// maximum (e.g. the largest RTO reached during a run).
func (g *Gauge) SetMax(v int64) {
	if g != nil && v > g.v {
		g.v = v
	}
}

// Value returns the current value (0 when disabled).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v <= bounds[i], and the final count is the overflow
// bucket. The exact maximum is tracked alongside the buckets so the
// top quantiles and Max stay exact even past the last bound. Bounds
// are fixed at registration so snapshots from different runs are
// directly comparable. Single writer, like Counter; all methods are
// nil-safe.
type Histogram struct {
	bounds []int64
	counts []uint64
	max    int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	if v > h.max {
		h.max = v
	}
}

// Counts returns a copy of the bucket counts (nil when disabled).
func (h *Histogram) Counts() []uint64 {
	if h == nil {
		return nil
	}
	return append([]uint64(nil), h.counts...)
}

// Max returns the largest observed value (0 when disabled or empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Registry owns the named metrics of one simulation run, and belongs to
// the goroutine running it (the package's single-writer contract). The
// zero value is not usable; create with NewRegistry. A nil *Registry is
// the disabled registry: every lookup returns a nil (no-op) handle.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (the no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Bounds must be ascending; later
// registrations of the same name reuse the original bounds.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending: %v", name, bounds))
			}
		}
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value uint64
}

// GaugeValue is one named gauge reading.
type GaugeValue struct {
	Name  string
	Value int64
}

// HistogramValue is one named histogram reading. Max is the exact
// largest observation (0 when empty).
type HistogramValue struct {
	Name   string
	Bounds []int64
	Counts []uint64
	Max    int64
}

// Total returns the observation count (the sum over all buckets).
func (h HistogramValue) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Quantile returns the exact q-quantile recoverable from the bucket
// counts: the upper bound of the bucket holding the ⌈q·n⌉-th smallest
// observation, clamped to the exact maximum (the overflow bucket has
// no upper bound, so a rank landing there returns Max). q is clamped
// to [0,1]; an empty histogram returns 0.
func (h HistogramValue) Quantile(q float64) int64 {
	n := h.Total()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++ // ceil
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= rank {
			if i < len(h.Bounds) && h.Bounds[i] < h.Max {
				return h.Bounds[i]
			}
			return h.Max
		}
	}
	return h.Max
}

// Snapshot is a point-in-time copy of a registry, sorted by metric name
// so it is deterministic and directly comparable across runs.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

// Snapshot copies the registry — the only form in which its readings
// leave the owning goroutine. On a nil registry it returns the empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramValue{
			Name:   name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: h.Counts(),
			Max:    h.Max(),
		})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the named counter's value (0 when absent).
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram reading and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Obs bundles the per-run registry and tracer handed to instrumented
// subsystems. A nil *Obs — or a nil field — disables the corresponding
// side with no further configuration.
type Obs struct {
	Registry *Registry
	Trace    *Tracer
}

// Counter resolves a counter handle (nil-safe at every level).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Registry.Counter(name)
}

// Gauge resolves a gauge handle.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Registry.Gauge(name)
}

// Histogram resolves a histogram handle.
func (o *Obs) Histogram(name string, bounds []int64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Registry.Histogram(name, bounds)
}

// Tracer returns the bundled tracer (nil when disabled).
func (o *Obs) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}
