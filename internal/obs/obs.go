// Package obs is the simulation-time observability subsystem: a
// registry of named fixed-bucket histograms, a structured event tracer
// (trace.go) and the per-interval timeline (timeline.go), all reading
// the des virtual clock instead of the wall clock.
//
// Counts of events and instantaneous state are not registered here.
// Each layer keeps the only copy of its own counters and state in plain
// fields (netem.Counters, transport.Stats, producer.Stats, broker.Stats,
// ...), and the testbed reads them into a run's MetricsSnapshot and its
// timeline rows. The registry's Counter is a general-purpose handle
// that no layer uses.
//
// Design constraints, in order:
//
//   - Cheap enough to stay on by default. Handles are resolved once at
//     construction time; the hot path is a nil check plus a plain
//     compare-and-store (or bucket increment), with no atomic
//     operation, no allocation and no map lookup.
//   - A no-op implementation when disabled. Every handle method has a
//     nil receiver fast path, so instrumented code calls
//     hist.Observe() unconditionally and a nil *Registry (or nil *Obs)
//     turns the whole subsystem into dead branches.
//   - Deterministic output. Snapshots list metrics in sorted name
//     order and encode to a canonical byte form, so two runs with the
//     same seed produce byte-identical snapshots regardless of worker
//     count or scheduling (the repo-wide determinism contract).
//
// Single-writer contract. A Registry and every handle resolved from it
// belong to the one goroutine running its simulation: that goroutine
// alone registers metrics, writes them, and reads them (Max, Snapshot)
// while the run is live. Nothing here is synchronised. Another
// goroutine may touch the registry only after the run has finished and
// that fact has reached it through a synchronising hand-off (the
// exprun pool's result channel, a WaitGroup): it takes Snapshot() and
// aggregates the copies (testbed.MetricsSnapshot.Merge). Parallel runs
// therefore each get their own registry, one per simulation, never a
// shared one; `go test -race` is the enforcement.
// Tracer and Timeline carry their own locks and are outside the contract.
//
// The package is zero-dependency (stdlib only) and imported by every
// protocol layer; it must never import them back.
package obs

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Clock abstracts the virtual clock; *des.Simulator satisfies it.
type Clock interface {
	Now() time.Duration
}

// Canonical metric names of the registry's histograms. Instrumented
// subsystems register under these so that snapshots and the testbed's
// MetricsSnapshot agree on one stable schema.
const (
	// Producer accumulator depth at each enqueue (QueueDepthBounds).
	MQueueDepth = "producer.queue_depth"

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

	// MPausedNs histograms per-partition pause windows: sim-time a
	// partition spent without active polling coverage (each sample is
	// one pause interval). Eager rebalances pause every partition for
	// the join barrier; cooperative ones pause only moving partitions.
	MPausedNs = "consumer.paused_ns"

	// Coordinator.
	MRebalanceNs = "coordinator.rebalance_ns"
)

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
	hists    map[string]*Histogram

	// The blocks new handles, bounds and bucket counts are carved from
	// (carve): a run registers its few dozen metrics in a handful of
	// allocations instead of one to three each.
	counterBlock []Counter
	histBlock    []Histogram
	boundBlock   []int64
	countBlock   []uint64
}

// Sizes of the registry's maps and blocks: one testbed run registers no
// counter (a run's counts live in its layers) and 5–9 histograms with
// 80–150 bounds. Presizing the histogram map saves allocations per run
// over growing it; the counter map is made on the first counter.
const (
	counterBlock = 8
	histBlock    = 16
	bucketBlock  = 128
)

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram, histBlock)}
}

// carve takes n zero values from the front of *block, first replacing
// the block with a fresh one of max(n, size) values when fewer than n
// are left. The result's capacity is n, so appending to it never
// reaches into the block.
func carve[T any](block *[]T, n, size int) []T {
	if len(*block) < n {
		*block = make([]T, max(n, size))
	}
	v := (*block)[:n:n]
	*block = (*block)[n:]
	return v
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		if r.counters == nil {
			r.counters = make(map[string]*Counter, counterBlock)
		}
		c = &carve(&r.counterBlock, 1, counterBlock)[0]
		r.counters[name] = c
	}
	return c
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
		h = &carve(&r.histBlock, 1, histBlock)[0]
		h.bounds = carve(&r.boundBlock, len(bounds), bucketBlock)
		copy(h.bounds, bounds)
		h.counts = carve(&r.countBlock, len(bounds)+1, bucketBlock)
		r.hists[name] = h
	}
	return h
}

// CounterValue is one named counter reading.
type CounterValue struct {
	Name  string
	Value uint64
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
	s.Counters = presized[CounterValue](len(r.counters))
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.v})
	}
	// Every histogram's copies are carved from one array per kind.
	var nb int
	for _, h := range r.hists {
		nb += len(h.bounds)
	}
	bounds, counts := make([]int64, nb), make([]uint64, nb+len(r.hists))
	s.Histograms = presized[HistogramValue](len(r.hists))
	for name, h := range r.hists {
		b, c := carve(&bounds, len(h.bounds), 0), carve(&counts, len(h.counts), 0)
		copy(b, h.bounds)
		copy(c, h.counts)
		s.Histograms = append(s.Histograms, HistogramValue{Name: name, Bounds: b, Counts: c, Max: h.Max()})
	}
	slices.SortFunc(s.Counters, func(a, b CounterValue) int { return strings.Compare(a.Name, b.Name) })
	slices.SortFunc(s.Histograms, func(a, b HistogramValue) int { return strings.Compare(a.Name, b.Name) })
	return s
}

// presized returns an empty slice with room for n, or nil for n == 0:
// an empty registry's snapshot keeps its nil slices.
func presized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
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
