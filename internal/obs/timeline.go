package obs

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Timeline is the sim-time sampler of one run: at a fixed virtual
// interval it polls the registered probe and records one fixed-schema
// row, turning end-of-run counters into per-interval series — *when*
// the run lost, duplicated and reconfigured, not just how much
// (the paper's Figs. 9-10 are exactly such timelines). Discrete
// moments — a scheduled config switch, a broker failure, a chaos fault —
// are recorded as annotations interleaved with the rows.
//
// Like the rest of the obs package, a nil *Timeline is the disabled
// implementation: every method is a no-op, so instrumented code calls
// unconditionally. The probe must be a pure observer: it reads state
// but never draws from a model's random source (a probe that consumed
// randomness would perturb the simulation it is watching). Rows store
// interval deltas of the probe's cumulative counts, so summing a column
// over all rows reproduces the end-of-run counter exactly — the
// invariant the run-report cross-check leans on.
//
// A timeline observes exactly one simulation (one virtual clock). A
// fleet or scaled run therefore carries one timeline per observed
// entity — a producer ("t003/p0007") or a topic's broker side ("t003")
// — each tagged via SetEntity, and WriteMergedCSV interleaves the
// per-entity series into one deterministic CSV. Only the event Tracer
// still requires a single-producer run.
type Timeline struct {
	mu       sync.Mutex
	interval time.Duration
	entity   string
	clock    Clock
	probe    func() TimelineRow
	prev     TimelineRow // the probe's previous answer
	rows     []TimelineRow
	lags     []int64 // the current chunk the rows' LagParts are carved from
	anns     []TimelineAnnotation
}

// DefaultTimelineInterval is the sampling interval when NewTimeline gets
// a non-positive one — the Fig. 9 trace granularity.
const DefaultTimelineInterval = 10 * time.Second

// NewTimeline returns a timeline sampling every interval (<= 0 takes
// DefaultTimelineInterval).
func NewTimeline(interval time.Duration) *Timeline {
	if interval <= 0 {
		interval = DefaultTimelineInterval
	}
	return &Timeline{interval: interval}
}

// Interval returns the sampling interval (0 when disabled).
func (t *Timeline) Interval() time.Duration {
	if t == nil {
		return 0
	}
	return t.interval
}

// SetEntity tags the timeline with the entity it observes — e.g. a
// fleet topic ("t003") or one of its producers ("t003/p0007"). The tag
// lands in the CSV's entity column; an untagged timeline writes an
// empty column, which keeps single-run CSVs stable.
func (t *Timeline) SetEntity(entity string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entity = entity
}

// BindClock attaches the virtual clock rows and annotations are stamped
// with. Samples taken with no clock bound carry At = 0.
func (t *Timeline) BindClock(c Clock) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = c
}

// SetProbe registers the function Sample reads: the observed entity's
// row as of now, with every count cumulative since the run began and
// every gauge instantaneous (GEState and DelayMs -1 where the entity
// has no such state). Sample turns the counts into interval deltas and
// derives LossRate. The probe may hand out the same LagParts storage on
// every call: Sample copies it. Without a probe every column stays zero
// (GEState and DelayMs -1).
func (t *Timeline) SetProbe(probe func() TimelineRow) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.probe = probe
}

// TimelineRow is one fixed-schema sample. Gauges (GE state, delay,
// cwnd, SRTT, queue depth, log end) are instantaneous; every count is
// the delta over the interval since the previous row, so column sums
// equal the end-of-run cumulative counters.
type TimelineRow struct {
	At time.Duration

	// Network emulation.
	GEState     int
	DelayMs     float64
	CfgLoss     float64
	PktsOffered uint64
	PktsLost    uint64  // random + overflow drops this interval
	LossRate    float64 // empirical: PktsLost / PktsOffered (0 when idle)

	// Transport.
	Cwnd         float64
	SRTT         time.Duration
	RTO          time.Duration
	InFlightSegs int
	SegmentsSent uint64
	Retransmits  uint64
	RTOTimeouts  uint64

	// Producer.
	QueueDepth      int
	InFlightBatches int
	Enqueued        uint64
	Acked           uint64
	Lost            uint64
	BatchRetries    uint64

	// Broker / cluster.
	LogEnd     int64
	Appends    uint64
	DupAppends uint64

	// Consumer group. Lag and LagParts are instantaneous (LagParts in
	// partition order, nil without a group); the counts are interval
	// deltas like every other count column.
	Lag              int64
	LagParts         []int64
	GroupDelivered   uint64
	GroupRedelivered uint64
	CommitAcks       uint64
	Rebalances       uint64
}

// Annotation kinds.
const (
	// AnnConfigSwitch marks a scheduled (offline) configuration change.
	AnnConfigSwitch = "config_switch"
	// AnnBrokerEvent marks an injected broker failure or recovery.
	AnnBrokerEvent = "broker_event"
	// AnnFault marks a chaos fault-plan action (partition window, delay
	// spike, loss burst, connection reset, broker slowdown, ...).
	AnnFault = "fault"
)

// TimelineAnnotation is a discrete moment worth a marker on the
// timeline: what happened (Kind) and its parameters (Detail).
type TimelineAnnotation struct {
	At     time.Duration
	Kind   string
	Detail string
}

// Annotate records a discrete event at the current virtual time.
func (t *Timeline) Annotate(kind, detail string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ann := TimelineAnnotation{Kind: kind, Detail: detail}
	if t.clock != nil {
		ann.At = t.clock.Now()
	}
	t.anns = append(t.anns, ann)
}

// Sample polls the probe and appends one row. The testbed drives it
// from a virtual-time ticker and takes one final sample after the
// simulation drains, so late events (a spurious retry's first copy
// landing after the producer finished) are still covered by a row.
func (t *Timeline) Sample() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := TimelineRow{GEState: -1, DelayMs: -1}
	if t.probe != nil {
		cur = t.probe()
	}
	row, prev := cur, &t.prev
	if t.clock != nil {
		row.At = t.clock.Now()
	}
	row.PktsOffered -= prev.PktsOffered
	row.PktsLost -= prev.PktsLost
	if row.PktsOffered > 0 {
		row.LossRate = float64(row.PktsLost) / float64(row.PktsOffered)
	}
	row.SegmentsSent -= prev.SegmentsSent
	row.Retransmits -= prev.Retransmits
	row.RTOTimeouts -= prev.RTOTimeouts
	row.Enqueued -= prev.Enqueued
	row.Acked -= prev.Acked
	row.Lost -= prev.Lost
	row.BatchRetries -= prev.BatchRetries
	row.Appends -= prev.Appends
	row.DupAppends -= prev.DupAppends
	row.GroupDelivered -= prev.GroupDelivered
	row.GroupRedelivered -= prev.GroupRedelivered
	row.CommitAcks -= prev.CommitAcks
	row.Rebalances -= prev.Rebalances
	row.LagParts = t.keepLags(cur.LagParts)
	t.prev = cur
	t.rows = append(t.rows, row)
}

// keepLags copies the probe's per-partition lags into the timeline's
// storage: rows carve them from shared chunks, the first with room for
// eight samples and each later one twice the last, so a run's samples
// cost O(log n) allocations, not one each. An empty input keeps nil.
func (t *Timeline) keepLags(lags []int64) []int64 {
	n := len(lags)
	if n == 0 {
		return nil
	}
	if cap(t.lags)-len(t.lags) < n {
		t.lags = make([]int64, 0, max(8*n, 2*cap(t.lags)))
	}
	start := len(t.lags)
	t.lags = append(t.lags, lags...)
	return t.lags[start : start+n : start+n]
}

// Rows returns a copy of the samples in time order, for a caller that
// keeps them; EachRow reads them in place.
func (t *Timeline) Rows() []TimelineRow {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TimelineRow(nil), t.rows...)
}

// EachRow calls fn with every sample in time order, without copying the
// rows. fn must not call back into the timeline, and must not write to
// or keep a row's LagParts, which the timeline owns.
func (t *Timeline) EachRow(fn func(TimelineRow)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.rows {
		fn(t.rows[i])
	}
}

// Annotations returns a copy of the annotations in emission order.
func (t *Timeline) Annotations() []TimelineAnnotation {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TimelineAnnotation(nil), t.anns...)
}

// timelineHeader is the fixed CSV schema. Renaming or reordering a
// column is a breaking change for timeline consumers. The entity column
// carries the SetEntity tag (empty on single-entity runs).
var timelineHeader = []string{
	"at_ns", "kind", "entity",
	"ge_state", "delay_ms", "cfg_loss", "pkts_offered", "pkts_lost", "loss_rate",
	"cwnd", "srtt_ns", "rto_ns", "inflight_segs", "segs_sent", "retransmits", "rto_timeouts",
	"queue_depth", "inflight_batches", "enqueued", "acked", "lost", "batch_retries",
	"log_end", "appends", "dup_appends",
	"lag", "group_delivered", "group_redelivered", "commit_acks", "rebalances",
	"detail",
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
func utoa(v uint64) string  { return strconv.FormatUint(v, 10) }
func itoa(v int64) string   { return strconv.FormatInt(v, 10) }

func writeSampleRecord(cw *csv.Writer, entity string, r TimelineRow) error {
	return cw.Write([]string{
		itoa(int64(r.At)), "sample", entity,
		strconv.Itoa(r.GEState), ftoa(r.DelayMs), ftoa(r.CfgLoss),
		utoa(r.PktsOffered), utoa(r.PktsLost), ftoa(r.LossRate),
		ftoa(r.Cwnd), itoa(int64(r.SRTT)), itoa(int64(r.RTO)),
		strconv.Itoa(r.InFlightSegs), utoa(r.SegmentsSent), utoa(r.Retransmits), utoa(r.RTOTimeouts),
		strconv.Itoa(r.QueueDepth), strconv.Itoa(r.InFlightBatches),
		utoa(r.Enqueued), utoa(r.Acked), utoa(r.Lost), utoa(r.BatchRetries),
		itoa(r.LogEnd), utoa(r.Appends), utoa(r.DupAppends),
		itoa(r.Lag), utoa(r.GroupDelivered), utoa(r.GroupRedelivered), utoa(r.CommitAcks), utoa(r.Rebalances),
		"",
	})
}

func writeAnnRecord(cw *csv.Writer, entity string, a TimelineAnnotation) error {
	rec := make([]string, len(timelineHeader))
	rec[0] = itoa(int64(a.At))
	rec[1] = a.Kind
	rec[2] = entity
	rec[len(rec)-1] = a.Detail
	return cw.Write(rec)
}

// timelineEntry is one sample (row set) or annotation (ann set) of an
// entity's timeline.
type timelineEntry struct {
	at     time.Duration
	entity string
	row    *TimelineRow
	ann    *TimelineAnnotation
}

// merged interleaves several timelines' annotations and samples by
// timestamp, reading both in place. Ties are broken by the timelines'
// input order and, within one timeline, annotations come before samples
// at equal times. Callers pass the timelines in a deterministic order
// (the fleet emits them in shard-then-producer order), so the order is
// identical at any worker count. No timeline may be sampled or
// annotated while its entries are in use.
func merged(timelines []*Timeline) []timelineEntry {
	var entries []timelineEntry
	for _, t := range timelines {
		if t == nil {
			continue
		}
		t.mu.Lock()
		i, j := 0, 0
		for i < len(t.rows) || j < len(t.anns) {
			if j < len(t.anns) && (i == len(t.rows) || t.anns[j].At <= t.rows[i].At) {
				entries = append(entries, timelineEntry{at: t.anns[j].At, entity: t.entity, ann: &t.anns[j]})
				j++
			} else {
				entries = append(entries, timelineEntry{at: t.rows[i].At, entity: t.entity, row: &t.rows[i]})
				i++
			}
		}
		t.mu.Unlock()
	}
	// Appended in (timeline, position) order, so a stable sort by time
	// breaks its ties by both.
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].at < entries[b].at })
	return entries
}

// WriteMergedCSV renders several timelines — a fleet run's per-entity
// series — as one CSV in the same fixed schema, in merged order.
func WriteMergedCSV(w io.Writer, timelines []*Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(timelineHeader); err != nil {
		return fmt.Errorf("obs: write merged timeline: %w", err)
	}
	for _, e := range merged(timelines) {
		var err error
		if e.ann != nil {
			err = writeAnnRecord(cw, e.entity, *e.ann)
		} else {
			err = writeSampleRecord(cw, e.entity, *e.row)
		}
		if err != nil {
			return fmt.Errorf("obs: write merged timeline: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("obs: write merged timeline: %w", err)
	}
	return nil
}

// lagHeader is the fixed schema of the per-partition lag projection.
var lagHeader = []string{"at_ns", "entity", "partition", "lag"}

// WriteLagCSV renders the consumer-lag projection of several timelines
// as one CSV: for every sample of a timeline observing a group, one row
// per partition (partition index, instantaneous lag) plus an aggregate
// row with partition -1, in merged order, so like the merged timeline
// the bytes are identical at any worker count.
func WriteLagCSV(w io.Writer, timelines []*Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(lagHeader); err != nil {
		return fmt.Errorf("obs: write lag timeline: %w", err)
	}
	for _, e := range merged(timelines) {
		if e.row == nil || e.row.LagParts == nil {
			continue
		}
		if err := cw.Write([]string{itoa(int64(e.at)), e.entity, "-1", itoa(e.row.Lag)}); err != nil {
			return fmt.Errorf("obs: write lag timeline: %w", err)
		}
		for p, lag := range e.row.LagParts {
			if err := cw.Write([]string{itoa(int64(e.at)), e.entity, strconv.Itoa(p), itoa(lag)}); err != nil {
				return fmt.Errorf("obs: write lag timeline: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("obs: write lag timeline: %w", err)
	}
	return nil
}
