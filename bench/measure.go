package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets: package
// variables initialise before main.
var processStart = time.Now()

const (
	// warmups is one: the first repeat of a process pays everything cold
	// (runtime start, heap growth, first calls); a second would add a
	// steady repeat's worth of host noise to setup_s and nothing else.
	warmups = 1
	// minRepeats is the floor under a time-boxed run: fewer samples say
	// little.
	minRepeats = 6
	// setupSamples is how many cold set-ups one headline run takes: its
	// own plus setupSamples-1 fresh child processes.
	setupSamples = 5
)

// tally adds one run's operations and failed checks to the record.
func (r *runRecord) tally(out outcome) {
	r.Attempted += out.ops
	r.Failed += out.failed
	r.Failures = append(r.Failures, out.failures...)
}

// checked runs the workload once and folds the run's verdict into rec.
// The first run's fingerprint becomes the reference; a later run with
// another fingerprint is a failed operation (same seed, same inputs:
// the simulator must be deterministic).
func checked(w workload, seed uint64, o runOpts, rec *runRecord) (outcome, error) {
	out, err := w.run(seed, o)
	if err != nil {
		return out, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.tally(out)
	switch {
	case rec.Fingerprint == "":
		rec.Fingerprint = out.fingerprint
		rec.Records = out.records
	case out.fingerprint != rec.Fingerprint:
		rec.Failed++
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s: output fingerprint %s differs from the first repeat's %s",
			w.name, out.fingerprint, rec.Fingerprint))
	}
	return out, nil
}

// warmUp runs the untimed warm-up repeats every pass starts with.
func warmUp(w workload, seed uint64, rec *runRecord) error {
	for i := 0; i < warmups; i++ {
		if _, err := checked(w, seed, runOpts{workers: 1}, rec); err != nil {
			return err
		}
	}
	return nil
}

// setupOnly is the child side of coldSetup: set up, print how long it
// took since process start (input generation + warm-ups; compile
// excluded), exit.
func setupOnly(w workload, seed uint64) error {
	runtime.GOMAXPROCS(1)
	var rec runRecord
	if err := warmUp(w, seed, &rec); err != nil {
		return err
	}
	fmt.Println(time.Since(processStart).Seconds())
	return nil
}

// coldSetup runs a fresh copy of this program through set-up only and
// returns the set-up seconds it reports.
func coldSetup(w workload, seed uint64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// headline is the untraced pass: GOMAXPROCS=1, one worker, no goroutine
// of the benchmark's own while the clock runs. It measures host cost
// per simulated record over timed repeats — `repeats` of them, or as
// many as it takes to measure for `seconds` when repeats is 0.
func headline(w workload, seed uint64, seconds float64, repeats int) (runRecord, error) {
	runtime.GOMAXPROCS(1)
	rec := runRecord{Workload: w.name}

	// Set-up is measured cold, setupSamples times, spread over the run so
	// that one slow episode of the host cannot sit on all of them: this
	// process's own start and warm-up first, then a fresh child process
	// between repeats at each quarter of the timed budget, the last one
	// after the last repeat.
	ownStart := time.Since(processStart)
	warmBegan := time.Now()
	if err := warmUp(w, seed, &rec); err != nil {
		return rec, err
	}
	setups := []float64{(ownStart + time.Since(warmBegan)).Seconds()}

	var nsPerRecord []float64
	var before, after runtime.MemStats
	var measured time.Duration // in timed repeats; set-up children left out
	for i := 0; ; i++ {
		done := float64(i) / float64(repeats)
		if repeats == 0 {
			done = math.Min(measured.Seconds()/seconds, float64(i)/minRepeats)
		}
		for len(setups) < setupSamples && done >= float64(len(setups))/(setupSamples-1) {
			s, err := coldSetup(w, seed)
			if err != nil {
				return rec, err
			}
			setups = append(setups, s)
		}
		if done >= 1 {
			break
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		out, err := checked(w, seed, runOpts{workers: 1}, &rec)
		elapsed := time.Since(t0)
		if err != nil {
			return rec, err
		}
		runtime.ReadMemStats(&after)
		measured += elapsed
		nsPerRecord = append(nsPerRecord, float64(elapsed.Nanoseconds())/float64(out.records))
	}
	rec.Repeats = len(nsPerRecord)

	// Interference on a shared host only adds time to a deterministic
	// single-threaded run, so the fastest repeat (and the fastest cold
	// set-up) is the steadiest estimate of the code's own cost (README,
	// "Why the minimum"). The quartiles are printed beside it.
	q1, med, q3 := quartiles(nsPerRecord)
	setupLo, setupMed, setupHi := quartiles(setups)
	records := float64(rec.Records)
	rec.Metrics = map[string]metricValue{
		"wall_ns_per_record":     {slices.Min(nsPerRecord), "ns"},
		"allocs_per_record":      {float64(after.Mallocs-before.Mallocs) / records, "count"},
		"alloc_bytes_per_record": {float64(after.TotalAlloc-before.TotalAlloc) / records, "B"},
		"setup_s":                {slices.Min(setups), "s"},
	}
	rec.Spreads = map[string]spread{
		"wall_ns_per_record": {Lower: q1, Median: med, Upper: q3, N: len(nsPerRecord)},
		"setup_s":            {Lower: setupLo, Median: setupMed, Upper: setupHi, N: len(setups)},
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}
