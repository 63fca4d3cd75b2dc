package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tlClock is a settable test clock.
type tlClock struct{ now time.Duration }

func (c *tlClock) Now() time.Duration { return c.now }

func TestNilTimelineIsNoOp(t *testing.T) {
	var tl *Timeline
	tl.BindClock(&tlClock{})
	tl.SetProbes(nil, nil, nil, nil)
	tl.Annotate(AnnConfigSwitch, "x")
	tl.Sample()
	if tl.Interval() != 0 {
		t.Errorf("nil timeline interval = %v, want 0", tl.Interval())
	}
	if rows := tl.Rows(); rows != nil {
		t.Errorf("nil timeline rows = %v, want nil", rows)
	}
	if anns := tl.Annotations(); anns != nil {
		t.Errorf("nil timeline annotations = %v, want nil", anns)
	}
	if err := WriteMergedCSV(&bytes.Buffer{}, []*Timeline{tl}); err != nil {
		t.Errorf("nil timeline WriteMergedCSV: %v", err)
	}
}

func TestNewTimelineDefaultInterval(t *testing.T) {
	if got := NewTimeline(0).Interval(); got != DefaultTimelineInterval {
		t.Errorf("interval = %v, want %v", got, DefaultTimelineInterval)
	}
	if got := NewTimeline(3 * time.Second).Interval(); got != 3*time.Second {
		t.Errorf("interval = %v, want 3s", got)
	}
}

// TestTimelineIntervalDeltas drives synthetic cumulative probes and
// checks rows hold per-interval deltas whose column sums reproduce the
// final cumulative values — the invariant the run report verifies.
func TestTimelineIntervalDeltas(t *testing.T) {
	clk := &tlClock{}
	tl := NewTimeline(time.Second)
	tl.BindClock(clk)
	var net NetProbe
	var pr ProducerProbe
	var br BrokerProbe
	tl.SetProbes(
		func() NetProbe { return net },
		nil,
		func() ProducerProbe { return pr },
		func() BrokerProbe { return br },
	)

	steps := []struct {
		offered, lost, enq, acked, dup uint64
	}{
		{100, 5, 50, 48, 0},
		{250, 30, 90, 80, 2},
		{250, 30, 120, 118, 2}, // idle network interval
	}
	var cum struct{ offered, lost, enq, acked, dup uint64 }
	tl.Sample() // t=0 anchor row
	for i, s := range steps {
		clk.now = time.Duration(i+1) * time.Second
		net.Offered, net.LostRandom = s.offered, s.lost
		pr.Enqueued, pr.Acked = s.enq, s.acked
		br.DupAppends = s.dup
		tl.Sample()
	}
	rows := tl.Rows()
	if len(rows) != len(steps)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(steps)+1)
	}
	if rows[0].At != 0 || rows[0].PktsOffered != 0 {
		t.Errorf("anchor row = %+v, want zero counts at t=0", rows[0])
	}
	// Second interval: offered 250-100, lost 30-5, loss rate 25/150.
	r := rows[2]
	if r.PktsOffered != 150 || r.PktsLost != 25 {
		t.Errorf("interval 2 pkts = %d/%d, want 25/150", r.PktsLost, r.PktsOffered)
	}
	if want := 25.0 / 150.0; r.LossRate != want {
		t.Errorf("interval 2 loss rate = %v, want %v", r.LossRate, want)
	}
	// Idle interval: zero packets must give loss rate 0, not NaN.
	if rows[3].PktsOffered != 0 || rows[3].LossRate != 0 {
		t.Errorf("idle interval = %+v, want zero packets and rate", rows[3])
	}
	for _, row := range rows {
		cum.offered += row.PktsOffered
		cum.lost += row.PktsLost
		cum.enq += row.Enqueued
		cum.acked += row.Acked
		cum.dup += row.DupAppends
	}
	last := steps[len(steps)-1]
	if cum.offered != last.offered || cum.lost != last.lost ||
		cum.enq != last.enq || cum.acked != last.acked || cum.dup != last.dup {
		t.Errorf("column sums %+v != final cumulative %+v", cum, last)
	}
	// No net probe state: GEState/DelayMs default to -1.
	tl2 := NewTimeline(time.Second)
	tl2.Sample()
	if r := tl2.Rows()[0]; r.GEState != -1 || r.DelayMs != -1 {
		t.Errorf("probe-less row = GEState %d DelayMs %v, want -1/-1", r.GEState, r.DelayMs)
	}
}

// TestTimelineCSV checks the fixed header, the annotation interleaving
// (annotations sort before rows at equal timestamps), and that repeated
// renders are byte-identical.
func TestTimelineCSV(t *testing.T) {
	clk := &tlClock{}
	tl := NewTimeline(time.Second)
	tl.BindClock(clk)
	tl.Sample()
	clk.now = time.Second
	tl.Annotate(AnnConfigSwitch, "B=5")
	tl.Sample()
	clk.now = 90 * time.Second
	tl.Annotate(AnnBrokerEvent, "fail broker 1")

	var buf bytes.Buffer
	if err := WriteMergedCSV(&buf, []*Timeline{tl}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+2+2 {
		t.Fatalf("lines = %d, want header + 2 samples + 2 annotations:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "at_ns,kind,entity,ge_state,") {
		t.Errorf("header = %q", lines[0])
	}
	// t=1s: annotation first, then the sample at the same instant.
	if !strings.Contains(lines[2], AnnConfigSwitch) || !strings.Contains(lines[2], "B=5") {
		t.Errorf("line 2 = %q, want the config_switch annotation", lines[2])
	}
	if !strings.Contains(lines[3], ",sample,") {
		t.Errorf("line 3 = %q, want the t=1s sample", lines[3])
	}
	if !strings.Contains(lines[4], AnnBrokerEvent) {
		t.Errorf("line 4 = %q, want the trailing broker_event", lines[4])
	}
	var buf2 bytes.Buffer
	if err := WriteMergedCSV(&buf2, []*Timeline{tl}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated renders differ")
	}
}

// TestWriteMergedCSV checks the entity column and the deterministic
// interleaving of several tagged timelines.
func TestWriteMergedCSV(t *testing.T) {
	clk := &tlClock{}
	mkTL := func(entity string, times ...time.Duration) *Timeline {
		tl := NewTimeline(time.Second)
		tl.SetEntity(entity)
		tl.BindClock(clk)
		for _, at := range times {
			clk.now = at
			tl.Sample()
		}
		return tl
	}
	a := mkTL("t000/p0000", 0, time.Second, 2*time.Second)
	b := mkTL("t000", 0, 2*time.Second)
	clk.now = time.Second
	b.Annotate(AnnBrokerEvent, "fail broker 0")

	var buf bytes.Buffer
	if err := WriteMergedCSV(&buf, []*Timeline{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1+3+2+1 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "at_ns,kind,entity,") {
		t.Fatalf("header = %q", lines[0])
	}
	wantOrder := []string{
		"0,sample,t000/p0000",
		"0,sample,t000",
		"1000000000,sample,t000/p0000",
		"1000000000,broker_event,t000",
		"2000000000,sample,t000/p0000",
		"2000000000,sample,t000",
	}
	for i, want := range wantOrder {
		if !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("line %d = %q, want prefix %q", i+1, lines[i+1], want)
		}
	}
	var buf2 bytes.Buffer
	if err := WriteMergedCSV(&buf2, []*Timeline{a, b}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("repeated merged renders differ")
	}
}
