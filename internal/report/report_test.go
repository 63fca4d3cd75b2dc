package report

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/testbed"
)

// fakeClock drives a timeline without a simulator.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// buildResult fabricates a result whose timeline has three phases
// (switches at 10s and 20s) and known per-interval counts.
func buildResult(t *testing.T) testbed.Result {
	t.Helper()
	clk := &fakeClock{}
	tl := obs.NewTimeline(5 * time.Second)
	tl.BindClock(clk)
	var cur obs.TimelineRow
	tl.SetProbe(func() obs.TimelineRow { return cur })

	tl.Sample() // t=0 anchor
	type step struct {
		at         time.Duration
		ann        string
		acked, dup uint64 // cumulative at this sample
	}
	steps := []step{
		{at: 5 * time.Second, acked: 10},
		{at: 10 * time.Second, ann: "cfg-B", acked: 20},
		{at: 15 * time.Second, acked: 25},
		{at: 20 * time.Second, ann: "cfg-A", acked: 30, dup: 4},
		{at: 25 * time.Second, acked: 50, dup: 4},
	}
	for _, s := range steps {
		clk.now = s.at
		if s.ann != "" {
			tl.Annotate(obs.AnnConfigSwitch, s.ann)
		}
		cur.Acked, cur.DupAppends = s.acked, s.dup
		tl.Sample()
	}
	return testbed.Result{
		Timeline: tl,
		Duration: 25 * time.Second,
		Producer: producer.Counts{Delivered: 50},
	}
}

func TestBuildRequiresTimeline(t *testing.T) {
	if _, err := Build(testbed.Result{}, nil, Options{}); err == nil {
		t.Error("result without timeline accepted")
	}
}

func TestBuildPhasesAndTotals(t *testing.T) {
	rep, err := Build(buildResult(t), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("phases = %d (%+v), want 3", len(rep.Phases), rep.Phases)
	}
	p := rep.Phases
	if p[0].Config != "initial" || p[1].Config != "cfg-B" || p[2].Config != "cfg-A" {
		t.Errorf("phase configs = %q/%q/%q", p[0].Config, p[1].Config, p[2].Config)
	}
	if p[0].End != 10*time.Second || p[1].Start != 10*time.Second || p[1].End != 20*time.Second {
		t.Errorf("phase bounds wrong: %+v", p[:2])
	}
	// A sample at exactly a switch time covers the interval before the
	// switch, so its counts belong to the earlier phase: phase 0 owns
	// t=0,5s,10s (acked 20), phase 1 owns 15s,20s (acked 10, dup 4),
	// phase 2 owns 25s (acked 20).
	if p[0].Acked != 20 || p[1].Acked != 10 || p[2].Acked != 20 {
		t.Errorf("phase acked = %d/%d/%d, want 20/10/20", p[0].Acked, p[1].Acked, p[2].Acked)
	}
	if p[1].DupAppends != 4 || p[2].DupAppends != 0 {
		t.Errorf("phase dups = %d/%d, want 4/0", p[1].DupAppends, p[2].DupAppends)
	}
	if rep.Totals.Acked != 50 || rep.Totals.DupAppends != 4 {
		t.Errorf("totals = %+v", rep.Totals)
	}
	if err := rep.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

func TestVerifyCatchesMismatch(t *testing.T) {
	res := buildResult(t)
	res.Producer.Delivered = 49 // timeline says 50
	rep, err := Build(res, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err == nil {
		t.Error("Verify accepted a counter mismatch")
	}
}

func TestRender(t *testing.T) {
	rep, err := Build(buildResult(t), nil, Options{Title: "T"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# T", "## Phases", "cfg-B", "## Timeline", "## Events"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	// The marker line has carets for both switches.
	if strings.Count(out, "^") < 2 {
		t.Errorf("marker line lacks switch carets:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "" {
		t.Errorf("empty series = %q", got)
	}
	s := sparkline([]float64{0, 0, 0, 8}, 4)
	if got := []rune(s); len(got) != 4 || got[3] != '█' || got[0] != '▁' {
		t.Errorf("sparkline = %q, want flat then full", s)
	}
	// Zero-max series renders all-low, not a divide-by-zero artefact.
	if s := sparkline([]float64{0, 0}, 2); s != "▁▁" {
		t.Errorf("zero series = %q", s)
	}
	// Resampling buckets by max.
	s = sparkline([]float64{0, 9, 0, 0}, 2)
	if []rune(s)[0] != '█' {
		t.Errorf("bucket max lost: %q", s)
	}
}
