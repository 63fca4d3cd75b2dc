package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric of the benchmark. The two tables below are
// the vocabulary every later performance or simplicity claim in this
// repository is made in; BENCHMARK.json lists the same names
// (TestBenchmarkJSONMatchesTables keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline by which an end-to-end metric
	// may worsen before it counts as a regression (per-layer: unused).
	Bound float64
}

// endToEnd bounds were set from two sets of ten runs per workload on ten
// seeds (README, "Spreads"): the allocation bounds are at least three
// times the widest seed-driven spread; the time bounds are as wide as the
// contract allows, because the shared host has episodes, from seconds to
// minutes long, that slow everything by 10-70 %.
var endToEnd = []metricDef{
	{"wall_ns_per_record", "ns", "lower", 0.25},
	{"allocs_per_record", "count", "lower", 0.04},
	{"alloc_bytes_per_record", "B", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "des.fire_ns_d64", Unit: "ns", Better: "lower"},
	{Name: "des.fire_ns_d4096", Unit: "ns", Better: "lower"},
	{Name: "des.timer_reset_ns", Unit: "ns", Better: "lower"},
	{Name: "des.events_per_record", Unit: "count", Better: "lower"},
	{Name: "des.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "netem.send_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.send_lossy_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.lost_per_krecord", Unit: "count", Better: "lower"},
	{Name: "netem.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.segment_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.segment_lossy_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.segments_per_record", Unit: "count", Better: "lower"},
	{Name: "transport.acks_per_record", Unit: "count", Better: "lower"},
	{Name: "transport.retransmit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "transport.rto_per_krecord", Unit: "count", Better: "lower"},
	{Name: "transport.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "wire.produce_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.produce_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.fetch_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.fetch_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.split_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "storage.append_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "storage.read_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "storage.append_allocs", Unit: "count", Better: "lower"},
	{Name: "storage.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "broker.append_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "broker.append_idem_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "broker.fetch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "broker.appends_per_record", Unit: "count", Better: "lower"},
	{Name: "broker.duplicates_per_krecord", Unit: "count", Better: "lower"},
	{Name: "broker.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.produce_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "cluster.fetch_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "cluster.replications_per_record", Unit: "count", Better: "lower"},
	{Name: "cluster.recover_us", Unit: "us", Better: "lower"},
	{Name: "cluster.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "coordinator.commit_ns", Unit: "ns", Better: "lower"},
	{Name: "coordinator.rebalance_us", Unit: "us", Better: "lower"},
	{Name: "coordinator.txn_cycle_us", Unit: "us", Better: "lower"},
	{Name: "coordinator.commits_per_krecord", Unit: "count", Better: "lower"},
	{Name: "coordinator.rebalances_per_run", Unit: "count", Better: "lower"},
	{Name: "coordinator.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "producer.batches_per_record", Unit: "count", Better: "lower"},
	{Name: "producer.retry_ratio", Unit: "ratio", Better: "lower"},
	{Name: "producer.timeouts_per_krecord", Unit: "count", Better: "lower"},
	{Name: "producer.pl", Unit: "ratio", Better: "lower"},
	{Name: "producer.pd", Unit: "ratio", Better: "lower"},
	{Name: "producer.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "consumer.poll_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "consumer.redelivered_ratio", Unit: "ratio", Better: "lower"},
	{Name: "consumer.commit_acks_per_krecord", Unit: "count", Better: "lower"},
	{Name: "consumer.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.enabled_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "testbed.build_us_per_run", Unit: "us", Better: "lower"},
	{Name: "testbed.build_share", Unit: "ratio", Better: "lower"},
	{Name: "chaos.plan_us", Unit: "us", Better: "lower"},
	{Name: "chaos.verify_us_per_trial", Unit: "us", Better: "lower"},
	{Name: "chaos.faults_per_trial", Unit: "count", Better: "higher"},
	{Name: "chaos.violations", Unit: "count", Better: "lower"},
	{Name: "exprun.speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "runtime.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles_per_run", Unit: "count", Better: "lower"},
	{Name: "other.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.profile_samples", Unit: "count", Better: "higher"},
}

// metricValue is one reported number, in the contract's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spread sits beside a timing metric's reported value (the minimum):
// the quartiles of the same sample and the sample count.
type spread struct {
	Lower  float64 `json:"lower_quartile"`
	Median float64 `json:"median"`
	Upper  float64 `json:"upper_quartile"`
	N      int     `json:"n"`
}

// runRecord is one (workload, pass) result. The first four fields are
// the contract's result line; the rest is what -agree and readers need.
type runRecord struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload    string `json:"workload"`
	Trace       int    `json:"trace"`
	Records     uint64 `json:"records_per_repeat"`
	Repeats     int    `json:"repeats"`
	Fingerprint string `json:"sim_fingerprint"`
	// StatsChanged is the fingerprint's verdict against golden.json;
	// nil when no fingerprint is pinned for the seed.
	StatsChanged *bool             `json:"sim_stats_changed,omitempty"`
	Spreads      map[string]spread `json:"spreads,omitempty"`
	// OtherShares breaks other.cpu_share down by package (traced pass).
	OtherShares map[string]float64 `json:"other_cpu_shares,omitempty"`
	// NotExposed lists per-layer metrics the workload's public result
	// does not carry; their Metrics entry is 0 so the line stays complete.
	NotExposed []string `json:"not_exposed,omitempty"`
	Failures   []string `json:"failures,omitempty"`
}

// contractLine renders the four keys the contract's last stdout line
// must have, and only those.
func (r runRecord) contractLine() ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
}

// host says where and on what a result set was measured; two sets from
// different hosts are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Repeats    int    `json:"repeats_flag"`
}

// sameMachine compares what identifies the host, not the run settings.
func (h host) sameMachine(o host) bool {
	return h.NProc == o.NProc && h.GOMAXPROCS == o.GOMAXPROCS &&
		h.CPUModel == o.CPUModel && h.GoVersion == o.GoVersion
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s commit=%s seed=%d seconds=%d repeats=%d",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Repeats)
}

func describeHost(seed uint64, seconds, repeats int) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Repeats:    repeats,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// resultSet is the file -o writes and -agree reads.
type resultSet struct {
	Host host        `json:"host"`
	Runs []runRecord `json:"runs"`
}

func readResultSet(path string) (resultSet, error) {
	var rs resultSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

func writeResultSet(path string, rs resultSet) error {
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

//go:embed golden.json
var goldenJSON []byte

// goldenFingerprint returns the pinned fingerprint for (seed, workload).
func goldenFingerprint(seed uint64, workload string) (string, bool) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", false
	}
	fp, ok := g[strconv.FormatUint(seed, 10)][workload]
	return fp, ok
}

// quartiles returns the three quartiles of values as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method:
// the q-quantile sits at position q·(n+1) of the sorted sample), which
// is the arithmetic the benchmark's acceptance spreads are taken with.
// For 11 samples the lower quartile is the 3rd smallest. (stats.Quantile
// interpolates over n-1 intervals, the inclusive method, and would put
// it between the 3rd and the 4th.)
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	at := func(q float64) float64 {
		pos := q*float64(n+1) - 1 // zero-based
		switch {
		case pos <= 0:
			return s[0]
		case pos >= float64(n-1):
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// agree compares two result sets run by run and reports whether every
// end-to-end metric of b is within its bound of a's, the simulated
// statistics are the same, and both come from one host.
func agree(w io.Writer, a, b resultSet) bool {
	ok := true
	if !a.Host.sameMachine(b.Host) {
		fmt.Fprintf(w, "DISAGREE hosts differ:\n  a: %s\n  b: %s\n", a.Host, b.Host)
		ok = false
	}
	type key struct {
		workload string
		trace    int
	}
	index := make(map[key]runRecord, len(b.Runs))
	for _, r := range b.Runs {
		index[key{r.Workload, r.Trace}] = r
	}
	compared := 0
	for _, ra := range a.Runs {
		rb, found := index[key{ra.Workload, ra.Trace}]
		if !found {
			fmt.Fprintf(w, "DISAGREE %s trace=%d: missing from the second set\n", ra.Workload, ra.Trace)
			ok = false
			continue
		}
		if a.Host.Seed == b.Host.Seed && ra.Fingerprint != rb.Fingerprint {
			fmt.Fprintf(w, "DISAGREE %s: sim_fingerprint %s vs %s at the same seed\n", ra.Workload, ra.Fingerprint, rb.Fingerprint)
			ok = false
		}
		for _, def := range endToEnd {
			va, ina := ra.Metrics[def.Name]
			vb, inb := rb.Metrics[def.Name]
			if !ina || !inb {
				continue // a traced-pass record
			}
			compared++
			diff := math.Abs(vb.Value-va.Value) / va.Value
			verdict := "agree"
			if !(diff <= def.Bound) {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Fprintf(w, "%-8s %-14s %-24s %14.4f vs %14.4f %s  diff %.4f (bound %.2f)\n",
				verdict, ra.Workload, def.Name, va.Value, vb.Value, def.Unit, diff, def.Bound)
		}
	}
	if compared == 0 {
		fmt.Fprintln(w, "DISAGREE no end-to-end metric in common")
		ok = false
	}
	return ok
}
