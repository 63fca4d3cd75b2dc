package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// span is one timed interval of the traced pass: a workload repeat, a
// layer driver, or one batch of calls into a layer. Parent 0 is the
// root. Calls is how many layer calls (or simulation runs) it covers.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int    `json:"calls,omitempty"`
}

// tracer keeps spans in memory; they are written out once, when the
// pass has ended.
type tracer struct {
	began time.Time
	spans []span
	// err is the first error a unit-cost set-up returned.
	err error
	// div shrinks the drivers' iteration counts (tests run them at 1/50).
	div int
}

func newTracer() *tracer { return &tracer{began: time.Now(), div: 1} }

// n scales a driver's full iteration count.
func (t *tracer) n(full int) int { return max(full/t.div, 1) }

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNs: time.Since(t.began).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id, calls int) time.Duration {
	s := &t.spans[id-1]
	s.EndNs = time.Since(t.began).Nanoseconds()
	s.Calls = calls
	return time.Duration(s.EndNs - s.StartNs)
}

// unit measures one unit cost: unitBatches times it sets a batch up
// (untimed), runs it under a span, and divides by the calls the batch
// makes; the result is the median nanoseconds per call.
func (t *tracer) unit(parent int, name string, calls int, setUp func() (func(), error)) float64 {
	xs := make([]float64, 0, unitBatches)
	for b := 0; b < unitBatches; b++ {
		body, err := setUp()
		if err != nil {
			if t.err == nil {
				t.err = fmt.Errorf("%s: %w", name, err)
			}
			return math.NaN()
		}
		id := t.start(name, parent)
		body()
		d := t.end(id, calls)
		xs = append(xs, float64(d.Nanoseconds())/float64(calls))
	}
	return median(xs)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Repeat counts of the traced pass. They are small on purpose: per-layer
// numbers explain, they do not gate.
const (
	plainRepeats    = 2
	profiledRepeats = 3
	w2Repeats       = 2
)

// traced is the second pass: it explains the headline by layer. Three
// kinds of number come out of it — counts read from the workload's own
// result, unit costs from the drivers in layers.go, and CPU shares from
// a profile taken around extra repeats — plus what the pass itself
// costs (trace.overhead_ratio).
func traced(w workload, seed uint64) (runRecord, *tracer, error) {
	runtime.GOMAXPROCS(1)
	rec := runRecord{Workload: w.name, Trace: 1}
	t := newTracer()
	root := t.start("traced "+w.name, 0)
	m := make(map[string]float64)

	// Unit costs first, one driver per layer, while the heap is still
	// small: after a workload has run, the collector's state (a 460 MB
	// heap after ingest_steady) moves these numbers by a factor of two.
	for _, d := range layerDrivers {
		id := t.start("layer "+d.layer, root)
		err := d.drive(t, id, m)
		t.end(id, 0)
		if err == nil {
			err = t.err
		}
		if err != nil {
			return rec, t, fmt.Errorf("layer driver %s: %w", d.layer, err)
		}
	}
	runtime.GC()

	// timeRepeat runs the workload once under a span and returns host
	// nanoseconds per record. Runs at the headline configuration also
	// have their fingerprint compared.
	timeRepeat := func(name string, o runOpts) (float64, error) {
		id := t.start(name, root)
		var out outcome
		var err error
		if o.disableMetrics {
			// Another configuration, another fingerprint: only checked.
			out, err = w.run(seed, o)
			rec.tally(out)
		} else {
			out, err = checked(w, seed, o, &rec)
		}
		d := t.end(id, out.ops)
		if err != nil {
			return 0, err
		}
		rec.Repeats++
		return float64(d.Nanoseconds()) / float64(out.records), nil
	}

	// Counts, from one run that doubles as the first warm-up.
	id := t.start("workload.count", root)
	var out outcome
	var err error
	if w.detail != nil {
		out, err = w.detail(seed)
		rec.tally(out)
	} else {
		out, err = checked(w, seed, runOpts{workers: 1}, &rec)
	}
	t.end(id, out.ops)
	if err != nil {
		return rec, t, err
	}
	rec.Repeats++
	countMetrics(out, m)
	if _, err := timeRepeat("workload.warmup", runOpts{workers: 1}); err != nil {
		return rec, t, err
	}

	// Untraced repeats; where the configuration exposes the switch, they
	// alternate with repeats that have the obs registry off.
	var plain, obsOff []float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < plainRepeats; i++ {
		if w.obsToggle {
			x, err := timeRepeat("workload.repeat.obs_off", runOpts{workers: 1, disableMetrics: true})
			if err != nil {
				return rec, t, err
			}
			obsOff = append(obsOff, x)
		}
		x, err := timeRepeat("workload.repeat", runOpts{workers: 1})
		if err != nil {
			return rec, t, err
		}
		plain = append(plain, x)
	}
	runtime.ReadMemStats(&after)
	runs := plainRepeats
	if w.obsToggle {
		runs *= 2
		m["obs.enabled_overhead_ratio"] = median(plain) / median(obsOff)
	}
	m["runtime.gc_cycles_per_run"] = float64(after.NumGC-before.NumGC) / float64(runs)

	// Profiled repeats: CPU samples bucketed by package (layerOfStack).
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return rec, t, err
	}
	var profiled []float64
	for i := 0; i < profiledRepeats; i++ {
		x, err := timeRepeat("workload.repeat.profiled", runOpts{workers: 1})
		if err != nil {
			pprof.StopCPUProfile()
			return rec, t, err
		}
		profiled = append(profiled, x)
	}
	pprof.StopCPUProfile()
	stacks, err := profileStacks(profile.Bytes())
	if err != nil {
		return rec, t, err
	}
	shares, detail, samples := cpuShares(stacks)
	for layer, share := range shares {
		m[layer+".cpu_share"] = share
	}
	m["trace.profile_samples"] = float64(samples)
	m["trace.overhead_ratio"] = median(profiled) / median(plain)

	// The same workload on two workers and two cores.
	if w.parallel {
		runtime.GOMAXPROCS(2)
		var w2 []float64
		for i := 0; i < w2Repeats; i++ {
			x, err := timeRepeat("workload.repeat.w2", runOpts{workers: 2})
			if err != nil {
				runtime.GOMAXPROCS(1)
				return rec, t, err
			}
			w2 = append(w2, x)
		}
		runtime.GOMAXPROCS(1)
		m["exprun.speedup_w2"] = median(plain) / median(w2)
	}

	// Share of a repeat that is building and tearing down rigs, taking a
	// one-message experiment as the price of one rig.
	repeatNs := median(plain) * float64(rec.Records)
	m["testbed.build_share"] = m["testbed.build_us_per_run"] * 1e3 * float64(out.counts.runs) / repeatNs
	m["host.peak_rss_mb"] = peakRSSMB()
	t.end(root, rec.Repeats)

	rec.Metrics = make(map[string]metricValue, len(perLayer))
	for _, def := range perLayer {
		v, ok := m[def.Name]
		if !ok {
			rec.NotExposed = append(rec.NotExposed, def.Name)
		}
		rec.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	// The base of the pass's ratios: its own unprofiled repeats.
	rec.Spreads = map[string]spread{"wall_ns_per_record": {Median: median(plain), N: len(plain)}}
	rec.OtherShares = detail
	rec.Correct = rec.Failed == 0
	return rec, t, nil
}

// countMetrics derives the per-record counts from what the run's public
// result exposes. A metric whose source the result does not carry is
// left out of m (and reported as not exposed).
func countMetrics(out outcome, m map[string]float64) {
	c := out.counts
	rec := float64(out.records)
	krec := rec / 1000
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m["producer.pl"] = float64(c.lost) / rec
	m["producer.pd"] = float64(c.duplicated) / rec
	if ms := c.metrics; ms != nil {
		m["des.events_per_record"] = float64(ms.SimEvents) / rec
		m["netem.lost_per_krecord"] = float64(ms.PacketsLostRandom+ms.PacketsLostOverflow) / krec
		m["transport.segments_per_record"] = float64(ms.SegmentsSent) / rec
		m["transport.acks_per_record"] = float64(ms.AcksSent) / rec
		m["transport.retransmit_ratio"] = ratio(ms.Retransmits, ms.SegmentsSent)
		m["transport.rto_per_krecord"] = float64(ms.RTOTimeouts) / krec
		m["broker.appends_per_record"] = float64(ms.BrokerAppends) / rec
		m["broker.duplicates_per_krecord"] = float64(ms.BrokerDuplicates+ms.BrokerDupAppends) / krec
		m["cluster.replications_per_record"] = float64(ms.Replications) / rec
		m["coordinator.commits_per_krecord"] = float64(ms.ConsumerCommitAcks) / krec
		m["coordinator.rebalances_per_run"] = float64(ms.Rebalance.Total()) / float64(c.runs)
		m["producer.batches_per_record"] = float64(ms.BatchesSent) / rec
		m["producer.retry_ratio"] = ratio(ms.BatchRetries, ms.BatchesSent)
		m["producer.timeouts_per_krecord"] = float64(ms.RequestTimeouts) / krec
		m["consumer.redelivered_ratio"] = ratio(ms.ConsumerRedelivered, ms.ConsumerDelivered)
		m["consumer.commit_acks_per_krecord"] = float64(ms.ConsumerCommitAcks) / krec
	}
	if c.trials > 0 {
		m["chaos.faults_per_trial"] = float64(c.faults) / float64(c.trials)
		m["coordinator.rebalances_per_run"] = float64(c.rebalances) / float64(c.runs)
		m["consumer.redelivered_ratio"] = ratio(c.redelivered, c.consumed)
	}
	if c.verified {
		m["chaos.violations"] = float64(c.violations)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
