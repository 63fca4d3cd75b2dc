// Package report renders a self-contained run report from a testbed
// Result: a per-phase reliability table (phases bounded by the
// configuration switches the timeline recorded), ASCII sparklines of
// the sampled series with switch markers, and the first complete
// duplicate chain from the event trace — the artefact a paper reader
// would want next to Table II: not just how much a dynamic run lost and
// duplicated, but when, and under which configuration.
package report

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"kafkarel/internal/obs"
	"kafkarel/internal/testbed"
	"kafkarel/internal/wire"
)

// Options tunes report rendering.
type Options struct {
	// Title heads the report ("Run report" when empty).
	Title string
}

// Phase is a stretch of the run under one configuration: from a
// configuration switch (or the start of the run) to the next switch (or
// the end). Counts are sums of the timeline rows that fall inside it.
type Phase struct {
	Start, End time.Duration
	// Config describes the configuration in force ("initial" for the
	// stretch before the first switch).
	Config string

	Enqueued    uint64
	Acked       uint64
	Lost        uint64
	Retransmits uint64
	PktsOffered uint64
	PktsLost    uint64
	DupAppends  uint64
}

// LossRate is the phase's empirical network loss rate.
func (p Phase) LossRate() float64 {
	if p.PktsOffered == 0 {
		return 0
	}
	return float64(p.PktsLost) / float64(p.PktsOffered)
}

// Totals are the column sums over every timeline row. Because rows hold
// interval deltas of cumulative counters, these must equal the
// end-of-run counters — the cross-check Verify enforces.
type Totals struct {
	Enqueued    uint64
	Acked       uint64
	Lost        uint64
	Retransmits uint64
	PktsOffered uint64
	PktsLost    uint64
	Appends     uint64
	DupAppends  uint64
}

// Report is the built model, ready to render.
type Report struct {
	Title  string
	Result testbed.Result

	Rows        []obs.TimelineRow
	Annotations []obs.TimelineAnnotation
	Phases      []Phase
	Totals      Totals

	// DuplicateChain is the first complete duplicate chain (producer
	// send → timeout → retry → double append) found in the event trace;
	// empty when the trace has none or no trace was attached.
	DuplicateChain []obs.Event
}

// sparklineWidth is the resampled width of each sparkline, in cells.
const sparklineWidth = 60

// Build assembles a report from a run result and (optionally) the
// tracer's events. The result must carry a timeline.
func Build(res testbed.Result, events []obs.Event, opts Options) (*Report, error) {
	if res.Timeline == nil {
		return nil, fmt.Errorf("report: result has no timeline (set Experiment.Timeline)")
	}
	r := &Report{
		Title:       opts.Title,
		Result:      res,
		Rows:        res.Timeline.Rows(),
		Annotations: res.Timeline.Annotations(),
	}
	if r.Title == "" {
		r.Title = "Run report"
	}
	r.buildPhases()
	r.buildTotals()
	for _, chain := range obs.DuplicateChains(events) {
		if obs.IsCompleteDuplicateChain(chain) {
			r.DuplicateChain = chain
			break
		}
	}
	return r, nil
}

// buildPhases slices the run at every configuration-changing annotation
// and assigns each row to the phase covering it. A row's counts are the
// deltas over the interval *ending* at its timestamp, so a row at
// exactly a switch time belongs to the phase before the switch.
func (r *Report) buildPhases() {
	end := r.Result.Duration
	for _, row := range r.Rows {
		if row.At > end {
			end = row.At
		}
	}
	r.Phases = []Phase{{Start: 0, End: end, Config: "initial"}}
	for _, ann := range r.Annotations {
		if ann.Kind != obs.AnnConfigSwitch {
			continue
		}
		last := &r.Phases[len(r.Phases)-1]
		if ann.At == last.Start {
			// A switch at the very moment the previous one fired (or at
			// t=0) replaces the phase rather than opening an empty one.
			last.Config = ann.Detail
			continue
		}
		last.End = ann.At
		r.Phases = append(r.Phases, Phase{Start: ann.At, End: end, Config: ann.Detail})
	}
	for _, row := range r.Rows {
		p := &r.Phases[0]
		for i := range r.Phases {
			// start < At <= end; the t=0 seed row stays in phase 0.
			if row.At > r.Phases[i].Start {
				p = &r.Phases[i]
			}
		}
		p.Enqueued += row.Enqueued
		p.Acked += row.Acked
		p.Lost += row.Lost
		p.Retransmits += row.Retransmits
		p.PktsOffered += row.PktsOffered
		p.PktsLost += row.PktsLost
		p.DupAppends += row.DupAppends
	}
}

func (r *Report) buildTotals() {
	for _, row := range r.Rows {
		r.Totals.Enqueued += row.Enqueued
		r.Totals.Acked += row.Acked
		r.Totals.Lost += row.Lost
		r.Totals.Retransmits += row.Retransmits
		r.Totals.PktsOffered += row.PktsOffered
		r.Totals.PktsLost += row.PktsLost
		r.Totals.Appends += row.Appends
		r.Totals.DupAppends += row.DupAppends
	}
}

// Verify cross-checks the timeline column sums against the end-of-run
// counters: producer outcomes against the reconciliation-facing counts
// and, when metrics were enabled, packets and duplicate appends against
// the registry snapshot. An error means the timeline missed or
// double-counted an interval.
func (r *Report) Verify() error {
	c := r.Result.Producer
	if got, want := r.Totals.Acked, c.Delivered; got != want {
		return fmt.Errorf("report: timeline acked %d != producer delivered %d", got, want)
	}
	if got, want := r.Totals.Lost, c.Lost; got != want {
		return fmt.Errorf("report: timeline lost %d != producer lost %d", got, want)
	}
	m := r.Result.Metrics
	if m == (testbed.MetricsSnapshot{}) {
		return nil // metrics disabled: nothing more to check against
	}
	if got, want := r.Totals.PktsLost, m.PacketsLostRandom+m.PacketsLostOverflow; got != want {
		return fmt.Errorf("report: timeline packets lost %d != metrics %d", got, want)
	}
	if got, want := r.Totals.Retransmits, m.Retransmits; got != want {
		return fmt.Errorf("report: timeline retransmits %d != metrics %d", got, want)
	}
	if got, want := r.Totals.DupAppends, m.BrokerDupAppends; got != want {
		return fmt.Errorf("report: timeline duplicate appends %d != metrics %d", got, want)
	}
	return nil
}

// sparkRunes are the eight block levels of a sparkline cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline resamples values into width cells by bucket max and maps
// each cell to a block rune scaled by the series maximum.
func sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width > len(values) {
		width = len(values)
	}
	cells := make([]float64, width)
	max := 0.0
	for i, v := range values {
		c := i * width / len(values)
		if v > cells[c] {
			cells[c] = v
		}
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range cells {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

// markerLine renders a caret under each sparkline cell whose time span
// contains a configuration switch.
func (r *Report) markerLine(width int) string {
	if len(r.Rows) == 0 {
		return ""
	}
	if width > len(r.Rows) {
		width = len(r.Rows)
	}
	end := r.Rows[len(r.Rows)-1].At
	if end <= 0 {
		return strings.Repeat(" ", width)
	}
	line := []rune(strings.Repeat(" ", width))
	for _, ann := range r.Annotations {
		if ann.Kind != obs.AnnConfigSwitch {
			continue
		}
		c := int(int64(ann.At) * int64(width) / int64(end))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		line[c] = '^'
	}
	return string(line)
}

// series extracts one column from the rows.
func (r *Report) series(f func(obs.TimelineRow) float64) []float64 {
	out := make([]float64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = f(row)
	}
	return out
}

func fmtDur(d time.Duration) string { return d.Truncate(time.Millisecond).String() }

// Render writes the report as markdown-flavoured text: every section is
// plain ASCII/Unicode that reads the same in a terminal and a markdown
// viewer.
func (r *Report) Render(w io.Writer) error {
	res := r.Result
	fmt.Fprintf(w, "# %s\n\n", r.Title)
	fmt.Fprintf(w, "- simulated duration: %v (completed: %v)\n", fmtDur(res.Duration), res.Completed)
	fmt.Fprintf(w, "- messages acquired: %d\n", res.Acquired)
	fmt.Fprintf(w, "- P_l (loss) = %.6f   P_d (duplication) = %.6f\n", res.Pl, res.Pd)
	fmt.Fprintf(w, "- throughput: %.1f msg/s   stale rate: %.4f\n", res.Throughput, res.StaleRate)
	fmt.Fprintf(w, "- timeline: %d samples, %d annotations\n\n", len(r.Rows), len(r.Annotations))

	if res.Metrics.SpanSend.Total() > 0 {
		fmt.Fprintf(w, "## Record latency spans\n\n")
		fmt.Fprintf(w, "Each span is timed from producer enqueue (commit: send → durable ack).\n\n")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "span\tcount\tp50\tp95\tp99\tmax")
		span := func(name string, s testbed.SpanHist) {
			if s.Total() == 0 {
				return
			}
			fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%v\n",
				name, s.Total(), s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), s.Max)
		}
		span("enqueue→send", res.Metrics.SpanSend)
		span("enqueue→append", res.Metrics.SpanAppend)
		span("enqueue→replicated", res.Metrics.SpanReplicated)
		span("enqueue→ack", res.Metrics.SpanAck)
		span("enqueue→delivery", res.Metrics.SpanDelivery)
		span("commit", res.Metrics.SpanCommit)
		span("rebalance", res.Metrics.Rebalance)
		tw.Flush()
		if res.GroupLag != nil {
			fmt.Fprintf(w, "\nconsumer lag (end of run): %v   commit acks: %d   redelivered: %d\n",
				res.GroupLag, res.Metrics.ConsumerCommitAcks, res.Metrics.ConsumerRedelivered)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "## Phases\n\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "#\tfrom\tto\tconfig\tenq\tacked\tlost\tdup-appends\tretrans\tnet-loss")
	for i, p := range r.Phases {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%s\t%d\t%d\t%d\t%d\t%d\t%.4f\n",
			i, fmtDur(p.Start), fmtDur(p.End), p.Config,
			p.Enqueued, p.Acked, p.Lost, p.DupAppends, p.Retransmits, p.LossRate())
	}
	tw.Flush()
	fmt.Fprintf(w, "\ntotals: enqueued %d, acked %d, lost %d, dup-appends %d, retransmits %d, pkts %d/%d lost\n\n",
		r.Totals.Enqueued, r.Totals.Acked, r.Totals.Lost, r.Totals.DupAppends,
		r.Totals.Retransmits, r.Totals.PktsLost, r.Totals.PktsOffered)

	var errParts []string
	for c, n := range res.Metrics.ProduceErrors {
		if n > 0 {
			errParts = append(errParts, fmt.Sprintf("%s=%d", wire.ErrorCode(c), n))
		}
	}
	if len(errParts) > 0 {
		fmt.Fprintf(w, "produce errors: %s\n\n", strings.Join(errParts, " "))
	}

	if len(r.Rows) > 1 {
		fmt.Fprintf(w, "## Timeline (%v per sample, ^ = config switch)\n\n", res.Timeline.Interval())
		spark := func(name string, f func(obs.TimelineRow) float64) {
			fmt.Fprintf(w, "%-14s %s\n", name, sparkline(r.series(f), sparklineWidth))
		}
		spark("net loss", func(row obs.TimelineRow) float64 { return row.LossRate })
		spark("retransmits", func(row obs.TimelineRow) float64 { return float64(row.Retransmits) })
		spark("queue depth", func(row obs.TimelineRow) float64 { return float64(row.QueueDepth) })
		spark("acked", func(row obs.TimelineRow) float64 { return float64(row.Acked) })
		spark("lost", func(row obs.TimelineRow) float64 { return float64(row.Lost) })
		spark("dup appends", func(row obs.TimelineRow) float64 { return float64(row.DupAppends) })
		fmt.Fprintf(w, "%-14s %s\n\n", "", r.markerLine(sparklineWidth))
	}

	if n := len(r.Annotations); n > 0 {
		fmt.Fprintf(w, "## Events\n\n")
		for _, ann := range r.Annotations {
			fmt.Fprintf(w, "- %v %s: %s\n", fmtDur(ann.At), ann.Kind, ann.Detail)
		}
		fmt.Fprintln(w)
	}

	if len(r.DuplicateChain) > 0 {
		fmt.Fprintf(w, "## First complete duplicate chain\n\n")
		fmt.Fprintf(w, "The batch below was sent, timed out, was retried, and both\ncopies were appended — the paper's Case-5 mechanism end to end.\n\n")
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "at\tlayer\ttype\tkey\tvalue\taux\tdetail")
		for _, ev := range r.DuplicateChain {
			fmt.Fprintf(tw, "%v\t%s\t%s\t%d\t%d\t%d\t%s\n",
				fmtDur(ev.At), ev.Layer, ev.Type, ev.Key, ev.Value, ev.Aux, ev.Detail)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	return nil
}
