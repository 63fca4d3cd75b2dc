package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"kafkarel/internal/chaos/campaign"
	"kafkarel/internal/testbed"
)

// smokeSizes run every workload in a few milliseconds.
var smokeSizes = sizes{
	fig7Messages:   60,
	ingestMessages: 2000,
	fleetMessages:  640,
	chaosTrials:    2,
	chaosCoop:      1,
}

func TestQuartiles(t *testing.T) {
	// Eleven repeats: the lower quartile is the 3rd smallest, the median
	// the 6th, the upper quartile the 9th.
	eleven := []float64{11, 3, 7, 1, 9, 5, 2, 10, 6, 4, 8}
	if q1, med, q3 := quartiles(eleven); q1 != 3 || med != 6 || q3 != 9 {
		t.Errorf("quartiles(1..11) = %v %v %v, want 3 6 9", q1, med, q3)
	}
	// Python: statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
	if q1, med, q3 := quartiles([]float64{4, 1, 3, 2}); q1 != 1.25 || med != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v %v %v, want 1.25 2.5 3.75", q1, med, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0].
	if q1, med, q3 := quartiles([]float64{20, 40, 10}); q1 != 10 || med != 20 || q3 != 40 {
		t.Errorf("quartiles(10,20,40) = %v %v %v, want 10 20 40", q1, med, q3)
	}
	if got := median([]float64{5}); got != 5 {
		t.Errorf("median of one = %v", got)
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestLayerBucketing(t *testing.T) {
	for fn, want := range map[string]string{
		"kafkarel/internal/des.(*Simulator).run":              "des",
		"container/heap.Push":                                 "des",
		"container/heap.down":                                 "des",
		"kafkarel/internal/chaos/campaign.runTrial":           "chaos",
		"kafkarel/internal/exprun.Map[go.shape.int,go.shape]": "exprun",
		"type:.eq.kafkarel/internal/broker.partitionKey":      "broker",
		"runtime.mallocgc":                                    "runtime",
		"runtime/internal/atomic.Xadd":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey":             "runtime",
		"internal/bytealg.IndexByte":                          "runtime",
		"gcWriteBarrier":                                      "runtime",
		"hash/crc32.update":                                   "other",
		"main.runFig7":                                        "other",
		"fmt.Fprintf":                                         "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// A standard-library leaf is charged to the layer that called it; the
	// runtime keeps its own time.
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"hash/crc32.update", "hash/crc32.Update", "kafkarel/internal/wire.RecordBatch.Encode", "kafkarel/internal/producer.(*Producer).send"}, "wire"},
		{[]string{"runtime.mallocgc", "kafkarel/internal/wire.DecodeRecordBatch"}, "runtime"},
		{[]string{"strconv.AppendInt", "fmt.Fprintf", "main.runFig7"}, "other"},
		{nil, "other"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", c.stack, got, c.want)
		}
	}

	shares, detail, total := cpuShares([]stackSample{
		{[]string{"container/heap.up", "kafkarel/internal/des.(*Simulator).AfterFunc"}, 30},
		{[]string{"runtime.scanobject"}, 40},
		{[]string{"math.pow", "kafkarel/internal/testbed.Calibration.IOTime"}, 20},
		{[]string{"crypto/sha256.block", "main.fingerprint"}, 10},
	})
	if total != 100 || shares["des"] != 0.3 || shares["runtime"] != 0.4 || shares["other"] != 0.3 {
		t.Errorf("cpuShares = %v (total %d)", shares, total)
	}
	if detail["testbed"] != 0.2 || detail["other"] != 0.1 {
		t.Errorf("cpuShares detail = %v", detail)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

// Protobuf encoding helpers for the synthetic profile below.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, field int, v uint64) []byte {
	return pbVarint(pbVarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, msg []byte) []byte {
	b = pbVarint(pbVarint(b, uint64(field)<<3|2), uint64(len(msg)))
	return append(b, msg...)
}

func TestProfileStacks(t *testing.T) {
	// string table: 0 "", 1 heap.up, 2 des.AfterFunc, 3 runtime.mallocgc
	strs := []string{"", "container/heap.up", "kafkarel/internal/des.(*Simulator).AfterFunc", "runtime.mallocgc"}
	var prof []byte
	// sample 1: locations [1 2] (packed), values [7, 70000] (packed)
	s1 := pbBytes(nil, 1, pbVarint(pbVarint(nil, 1), 2))
	s1 = pbBytes(s1, 2, pbVarint(pbVarint(nil, 7), 70000))
	prof = pbBytes(prof, 2, s1)
	// sample 2: location 3 and values unpacked
	s2 := pbUint(nil, 1, 3)
	s2 = pbUint(pbUint(s2, 2, 5), 2, 50000)
	prof = pbBytes(prof, 2, s2)
	// location 1 holds heap.up inlined into des.AfterFunc (two lines);
	// location 2 is des.AfterFunc's caller frame, reusing function 2.
	loc1 := pbUint(nil, 1, 1)
	loc1 = pbBytes(loc1, 4, pbUint(nil, 1, 1))
	loc1 = pbBytes(loc1, 4, pbUint(nil, 1, 2))
	prof = pbBytes(prof, 4, loc1)
	prof = pbBytes(prof, 4, pbBytes(pbUint(nil, 1, 2), 4, pbUint(nil, 1, 2)))
	prof = pbBytes(prof, 4, pbBytes(pbUint(nil, 1, 3), 4, pbUint(nil, 1, 3)))
	for id := 1; id <= 3; id++ {
		prof = pbBytes(prof, 5, pbUint(pbUint(nil, 1, uint64(id)), 2, uint64(id)))
	}
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	prof = pbUint(prof, 9, 12345) // time_nanos: a field the reader skips

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := profileStacks(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{[]string{strs[1], strs[2], strs[2]}, 7},
		{[]string{strs[3]}, 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("profileStacks = %+v, want %+v", got, want)
	}
	if _, err := profileStacks(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
	if _, err := profileStacks([]byte("not gzip")); err == nil {
		t.Error("garbage parsed without error")
	}
}

func sampleSet() resultSet {
	changed := false
	return resultSet{
		Host: host{NProc: 2, GOMAXPROCS: 1, CPUModel: "cpu", GoVersion: "go1.24.0", Commit: "abc", Seed: 1, Seconds: 10},
		Runs: []runRecord{{
			Correct: true, Attempted: 968, Failed: 0,
			Metrics: map[string]metricValue{
				"wall_ns_per_record":     {2400.5, "ns"},
				"allocs_per_record":      {1.303, "count"},
				"alloc_bytes_per_record": {1047.8, "B"},
				"setup_s":                {1.9, "s"},
			},
			Workload: "fig7_sweep", Records: 352000, Repeats: 11, Fingerprint: "f00d",
			StatsChanged: &changed,
			Spreads:      map[string]spread{"wall_ns_per_record": {Lower: 2420, Median: 2450, Upper: 2500, N: 11}},
		}},
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	want := sampleSet()
	path := filepath.Join(t.TempDir(), "set.json")
	if err := writeResultSet(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the set:\n got %+v\nwant %+v", got, want)
	}

	// The contract's line has exactly four keys, and each metric exactly
	// a value and a unit.
	line, err := want.Runs[0].contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(line, &obj); err != nil {
		t.Fatal(err)
	}
	if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
		t.Errorf("contract line keys = %v", obj)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for _, def := range endToEnd {
		if m := metrics[def.Name]; len(m) != 2 || m["unit"] != def.Unit {
			t.Errorf("metric %s = %v", def.Name, m)
		}
	}
}

func TestAgree(t *testing.T) {
	a := sampleSet()
	var out bytes.Buffer
	if !agree(&out, a, sampleSet()) {
		t.Errorf("a set disagrees with itself:\n%s", out.String())
	}

	// Just beyond and just inside the wall-time bound.
	bound := endToEnd[0].Bound
	slower := sampleSet()
	slower.Runs[0].Metrics["wall_ns_per_record"] = metricValue{2400.5 * (1 + bound + 0.01), "ns"}
	out.Reset()
	if agree(&out, a, slower) || !strings.Contains(out.String(), "DISAGREE fig7_sweep     wall_ns_per_record") {
		t.Errorf("wall time beyond its bound agreed:\n%s", out.String())
	}

	within := sampleSet()
	within.Runs[0].Metrics["wall_ns_per_record"] = metricValue{2400.5 * (1 + bound - 0.01), "ns"}
	out.Reset()
	if !agree(&out, a, within) {
		t.Errorf("wall time inside its bound disagreed:\n%s", out.String())
	}

	otherHost := sampleSet()
	otherHost.Host.CPUModel = "another cpu"
	out.Reset()
	if agree(&out, a, otherHost) || !strings.Contains(out.String(), "hosts differ") {
		t.Errorf("different hosts agreed:\n%s", out.String())
	}

	otherStats := sampleSet()
	otherStats.Runs[0].Fingerprint = "beef"
	out.Reset()
	if agree(&out, a, otherStats) || !strings.Contains(out.String(), "sim_fingerprint") {
		t.Errorf("different fingerprints at one seed agreed:\n%s", out.String())
	}

	out.Reset()
	if agree(&out, a, resultSet{Host: a.Host}) {
		t.Errorf("an empty set agreed:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesTables keeps the contract file at the
// repository root in step with the tables this package reports by.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(contract.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", contract.Command, contract.Paths)
	}
	if contract.RunSeconds < 1 || contract.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", contract.RunSeconds)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s %d = %+v, want %+v", kind, i, g, def)
			}
			if bounded && (g.Bound == nil || *g.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, want %v in (0, 0.25]", kind, def.Name, g.Bound, def.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, def.Name)
			}
		}
	}
	compare("end_to_end", contract.EndToEnd, endToEnd, true)
	compare("per_layer", contract.PerLayer, perLayer, false)
}

func TestGoldenPinsEveryWorkloadAtSeedOne(t *testing.T) {
	for _, w := range workloads {
		if fp, ok := goldenFingerprint(1, w.name); !ok || len(fp) != 64 {
			t.Errorf("golden.json has no fingerprint for %s at seed 1 (got %q)", w.name, fp)
		}
	}
	if _, ok := goldenFingerprint(999, "fig7_sweep"); ok {
		t.Error("golden.json pins seed 999")
	}
}

// TestWorkloadSmoke runs each workload small: no operation fails, the
// output fingerprint repeats, depends on the seed, and does not depend
// on the worker count.
func TestWorkloadSmoke(t *testing.T) {
	for _, w := range smokeSizes.workloads() {
		var rec runRecord
		first, err := checked(w, 1, runOpts{workers: 1}, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checked(w, 1, runOpts{workers: 2}, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Failed != 0 || rec.Attempted != 2*first.ops || first.ops == 0 || first.records == 0 {
			t.Errorf("%s: attempted %d failed %d %v (ops %d, records %d)", w.name, rec.Attempted, rec.Failed, rec.Failures, first.ops, first.records)
		}
		other, err := w.run(2, runOpts{workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if other.fingerprint == first.fingerprint {
			t.Errorf("%s: seeds 1 and 2 give one fingerprint", w.name)
		}
		m := make(map[string]float64)
		countMetrics(first, m)
		if _, ok := m["des.events_per_record"]; ok != (first.counts.metrics != nil) {
			t.Errorf("%s: des.events_per_record exposed = %v", w.name, ok)
		}
		if w.detail != nil {
			d, err := w.detail(1)
			if err != nil {
				t.Fatal(err)
			}
			if d.failed != 0 || d.ops != first.ops || d.records != first.records || d.counts.metrics == nil {
				t.Errorf("%s detail: %+v", w.name, d)
			}
		}
	}
}

// A repeat whose output differs from the first repeat's is a failed
// operation, whatever its own checks say.
func TestFingerprintMismatchFails(t *testing.T) {
	n := 0
	w := workload{name: "flaky", run: func(uint64, runOpts) (outcome, error) {
		n++
		return outcome{records: 10, ops: 1, fingerprint: strings.Repeat("a", n)}, nil
	}}
	var rec runRecord
	for i := 0; i < 3; i++ {
		if _, err := checked(w, 1, runOpts{workers: 1}, &rec); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Attempted != 3 || rec.Failed != 2 || len(rec.Failures) != 2 || rec.Fingerprint != "a" {
		t.Errorf("rec = %+v", rec)
	}
}

// The correctness checks must fire on a doctored result.
func TestChecksCatchDoctoredResults(t *testing.T) {
	z := smokeSizes

	res, err := testbed.Run(z.ingestExperiment(1, runOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkIngest(res, z.ingestMessages); len(bad) != 0 {
		t.Fatalf("clean ingest result flagged: %v", bad)
	}
	for name, doctor := range map[string]func(*testbed.Result){
		"incomplete":       func(r *testbed.Result) { r.Completed = false },
		"short source":     func(r *testbed.Result) { r.Acquired-- },
		"lost unaccounted": func(r *testbed.Result) { r.Report.NLost++ },
		"vanished record":  func(r *testbed.Result) { r.Report.Distinct-- },
		"foreign record":   func(r *testbed.Result) { r.Report.Foreign = 1 },
		"retransmit":       func(r *testbed.Result) { r.Metrics.Retransmits = 1 },
		"duplicate":        func(r *testbed.Result) { r.Pd = 0.001 },
	} {
		r := res
		doctor(&r)
		if bad := checkIngest(r, z.ingestMessages); len(bad) == 0 {
			t.Errorf("ingest check missed %q", name)
		}
	}

	fleet, err := testbed.RunFleet(z.fleetConfig(1, runOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	if bad := checkFleet(fleet, z.fleetMessages); len(bad) != 0 {
		t.Fatalf("clean fleet result flagged: %v", bad)
	}
	for name, doctor := range map[string]func(*testbed.FleetResult){
		"short fleet":      func(r *testbed.FleetResult) { r.Acquired-- },
		"incomplete shard": func(r *testbed.FleetResult) { r.Topics[3].Completed = false },
		"lost unaccounted": func(r *testbed.FleetResult) { r.Topics[0].Report.NLost++ },
		"undrained group":  func(r *testbed.FleetResult) { r.Topics[7].GroupDrained = false },
		"e2e violation":    func(r *testbed.FleetResult) { r.Topics[1].E2EViolations = 1 },
		"coop violation":   func(r *testbed.FleetResult) { r.Topics[2].CoopViolations = 1 },
	} {
		r := fleet
		r.Topics = append([]testbed.FleetTopicResult(nil), fleet.Topics...)
		doctor(&r)
		if bad := checkFleet(r, z.fleetMessages); len(bad) != 1 {
			t.Errorf("fleet check on %q gave %v, want one reason", name, bad)
		}
	}

	row := campaign.Row{Mode: campaign.ModeExactlyOnce, Completed: true, Acquired: chaosMessages, Delivered: chaosMessages - 4, Lost: 4, Pass: true}
	clean := campaign.Scorecard{Rows: []campaign.Row{row, row}}
	if bad := checkScorecard(clean, 2); len(bad) != 0 {
		t.Fatalf("clean scorecard flagged: %v", bad)
	}
	for name, doctor := range map[string]func(*campaign.Scorecard){
		"missing row":      func(s *campaign.Scorecard) { s.Rows = s.Rows[:1] },
		"failed count":     func(s *campaign.Scorecard) { s.Failed = 1 },
		"incomplete":       func(s *campaign.Scorecard) { s.Rows[1].Completed = false },
		"short source":     func(s *campaign.Scorecard) { s.Rows[0].Acquired-- },
		"lost unaccounted": func(s *campaign.Scorecard) { s.Rows[0].Lost-- },
		"violation":        func(s *campaign.Scorecard) { s.Rows[1].Violations = []string{"acked record lost"} },
		"not passed":       func(s *campaign.Scorecard) { s.Rows[1].Pass = false },
	} {
		s := clean
		s.Rows = append([]campaign.Row(nil), clean.Rows...)
		doctor(&s)
		if bad := checkScorecard(s, 2); len(bad) != 1 {
			t.Errorf("scorecard check on %q gave %v, want one reason", name, bad)
		}
	}
}

// TestLayerDrivers runs the unit-cost drivers at 1/50 size: each fills its
// metrics with positive numbers and records its spans under its parent.
func TestLayerDrivers(t *testing.T) {
	tr := newTracer()
	tr.div = 50
	m := make(map[string]float64)
	for _, d := range layerDrivers {
		parent := tr.start("layer "+d.layer, 0)
		if err := d.drive(tr, parent, m); err != nil {
			t.Fatalf("%s: %v", d.layer, err)
		}
		tr.end(parent, 0)
	}
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	for name, v := range m {
		if !(v >= 0) || math.IsInf(v, 0) || (v == 0 && !strings.HasSuffix(name, "_allocs")) {
			t.Errorf("%s = %v", name, v)
		}
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs || (s.Parent != 0 && tr.spans[s.Parent-1].StartNs > s.StartNs) {
			t.Errorf("span %+v out of order", s)
		}
	}
}
