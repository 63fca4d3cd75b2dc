package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"kafkarel/internal/exprun"
	"kafkarel/internal/obs"
	"kafkarel/internal/report"
)

// TestReportDynamicRunAcceptance is the ISSUE acceptance check for the
// run report: the Table-II-style dynamic run must reconfigure at least
// twice, and the per-phase table's totals (sums of timeline interval
// deltas) must equal the end-of-run counters from the result.
func TestReportDynamicRunAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full dynamic run; skipped in -short")
	}
	res, events, err := reportDynamicRun(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := report.Build(res, events, report.Options{})
	if err != nil {
		t.Fatal(err)
	}

	switches := 0
	for _, ann := range rep.Annotations {
		if ann.Kind == obs.AnnConfigSwitch {
			switches++
		}
	}
	if switches < 2 {
		t.Errorf("config_switch annotations = %d, want >= 2 on the dynamic run", switches)
	}
	if len(rep.Phases) < 3 {
		t.Errorf("phases = %d, want >= 3 (initial + two switches)", len(rep.Phases))
	}

	// The cross-check: Verify compares timeline column sums against the
	// producer counts and the metrics snapshot.
	if err := rep.Verify(); err != nil {
		t.Errorf("report cross-check failed: %v", err)
	}
	// And independently: per-phase sums equal the totals equal the
	// end-of-run counters.
	var acked, lost, dup uint64
	for _, p := range rep.Phases {
		acked += p.Acked
		lost += p.Lost
		dup += p.DupAppends
	}
	if acked != rep.Totals.Acked || lost != rep.Totals.Lost || dup != rep.Totals.DupAppends {
		t.Errorf("phase sums (%d/%d/%d) != totals (%d/%d/%d)",
			acked, lost, dup, rep.Totals.Acked, rep.Totals.Lost, rep.Totals.DupAppends)
	}
	if acked != res.Producer.Delivered {
		t.Errorf("phase acked %d != producer delivered %d", acked, res.Producer.Delivered)
	}
	if lost != res.Producer.Lost {
		t.Errorf("phase lost %d != producer lost %d", lost, res.Producer.Lost)
	}
	if dup != res.Metrics.BrokerDupAppends {
		t.Errorf("phase dup-appends %d != metrics %d", dup, res.Metrics.BrokerDupAppends)
	}

	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## Phases", "config_switch", "P_l", "## Timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report lacks %q:\n%s", want, out)
		}
	}
}

// TestReportTimelineCSVParallelByteIdentical is the determinism
// acceptance check: timeline CSVs of a batch of dynamic runs fanned out
// over the experiment pool must be byte-identical for every worker
// count (each run is seed-deterministic; worker count is a pure
// wall-clock lever).
func TestReportTimelineCSVParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full dynamic runs; skipped in -short")
	}
	batch := func(workers int) []byte {
		seeds := []uint64{3, 4, 5, 6}
		csvs, err := exprun.Map(context.Background(), seeds,
			func(_ context.Context, _ int, seed uint64) ([]byte, error) {
				res, _, err := reportDynamicRun(1200, seed)
				if err != nil {
					return nil, err
				}
				var buf bytes.Buffer
				if err := obs.WriteMergedCSV(&buf, []*obs.Timeline{res.Timeline}); err != nil {
					return nil, err
				}
				return buf.Bytes(), nil
			}, exprun.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(csvs, []byte("====\n"))
	}
	base := batch(1)
	for _, workers := range []int{4, 8} {
		if got := batch(workers); !bytes.Equal(base, got) {
			t.Errorf("timeline CSVs differ between workers=1 and workers=%d", workers)
		}
	}
}

// TestRunReportSubcommand smoke-tests the CLI path end to end.
func TestRunReportSubcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("full dynamic run; skipped in -short")
	}
	out := captureStdout(t, func() error {
		return run(context.Background(), []string{"-q", "-n", "1500", "report"})
	})
	if !bytes.Contains(out, []byte("## Phases")) {
		t.Errorf("report subcommand output lacks the phase table:\n%s", out)
	}
}
