package netem

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/obs"
	"kafkarel/internal/stats"
)

func TestLinkLossRate(t *testing.T) {
	sim := des.New()
	lossless, err := NewLink(sim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := lossless.LossRate(); got != 0 {
		t.Errorf("lossless LossRate = %v, want 0", got)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	bern, err := stats.NewBernoulli(0.19, rng)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(sim, Config{Loss: bern})
	if err != nil {
		t.Fatal(err)
	}
	if got := link.LossRate(); got != 0.19 {
		t.Errorf("bernoulli LossRate = %v, want 0.19", got)
	}
	ge, err := stats.NewGilbertElliot(0.02, 0.05, 0.98, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	link.SetLoss(ge)
	// Stationary rate: π_bad(1-H) + π_good(1-K) with π_bad = p/(p+r).
	piBad := 0.02 / (0.02 + 0.05)
	want := piBad*0.8 + (1-piBad)*0.02
	if got := link.LossRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("gilbert-elliot LossRate = %v, want %v", got, want)
	}
}

// TestLinkProbePureObserver pins the probe contract: reading the link's
// State must not consume randomness or advance the loss chain, so a run
// observed by a timeline is the same run.
func TestLinkProbePureObserver(t *testing.T) {
	sim := des.New()
	rng := rand.New(rand.NewPCG(3, 4))
	ge, err := stats.NewGilbertElliot(0.5, 0.5, 1, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(sim, Config{Loss: ge, Delay: stats.Constant{Value: 7}})
	if err != nil {
		t.Fatal(err)
	}
	var geState int
	var delayMs float64
	for i := 0; i < 1000; i++ {
		geState, delayMs, _ = link.State()
	}
	// The chain has not advanced and the next draws are untouched: the
	// first Drop must behave exactly as on a fresh identically-seeded
	// model that was never probed.
	fresh, err := stats.NewGilbertElliot(0.5, 0.5, 1, 0, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got, want := ge.Drop(), fresh.Drop(); got != want {
			t.Fatalf("draw %d after probing = %v, fresh model = %v: State consumed randomness", i, got, want)
		}
	}
	if geState != 0 {
		t.Errorf("GE state = %d, want 0 (chain starts good and must not advance)", geState)
	}
	if delayMs != 7 {
		t.Errorf("delay = %v ms, want the configured constant 7", delayMs)
	}
}

// TestGEStatePhasesViaTimeline drives a steady packet stream through a
// Gilbert-Elliot link while a timeline samples it, then splits
// the sampled intervals by chain state: bad-state intervals must lose
// at roughly 1-H, good-state intervals at roughly 1-K, and the fraction
// of bad samples must approach the stationary π_bad = p/(p+r). State
// dwell times (1/p and 1/r packets) are kept an order of magnitude
// longer than the sampling interval so most intervals are pure-state.
func TestGEStatePhasesViaTimeline(t *testing.T) {
	const (
		p, r = 0.002, 0.005 // per-packet transitions: dwells of 500/200 packets
		k, h = 0.99, 0.25   // delivery probabilities good/bad
	)
	sim := des.New()
	rng := rand.New(rand.NewPCG(11, 13))
	ge, err := stats.NewGilbertElliot(p, r, k, h, rng)
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewLink(sim, Config{Loss: ge})
	if err != nil {
		t.Fatal(err)
	}
	tl := obs.NewTimeline(20 * time.Millisecond) // 20 packets per interval
	tl.BindClock(sim)
	tl.SetProbe(func() obs.TimelineRow {
		n := link.Counters()
		geState, _, _ := link.State()
		return obs.TimelineRow{GEState: geState, PktsOffered: n.Offered, PktsLost: n.LostRandom + n.LostOverflow}
	})

	const packets = 400_000
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * time.Millisecond
		sim.Schedule(at, func() { send(link, 100, func() {}) })
	}
	interval := tl.Interval()
	for at := interval; at <= packets*time.Millisecond; at += interval {
		sim.Schedule(at, tl.Sample)
	}
	if err := sim.RunUntil(packets * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	var goodPkts, goodLost, badPkts, badLost, badRows, rows uint64
	for _, row := range tl.Rows() {
		if row.PktsOffered == 0 {
			continue
		}
		rows++
		switch row.GEState {
		case 0:
			goodPkts += row.PktsOffered
			goodLost += row.PktsLost
		case 1:
			badRows++
			badPkts += row.PktsOffered
			badLost += row.PktsLost
		default:
			t.Fatalf("GEState = %d, want 0 or 1 for a chain model", row.GEState)
		}
	}
	goodRate := float64(goodLost) / float64(goodPkts)
	badRate := float64(badLost) / float64(badPkts)
	// Mixed intervals (state flips mid-interval) blur both estimates
	// toward each other, so the pins are loose but strictly ordered.
	if math.Abs(goodRate-(1-k)) > 0.03 {
		t.Errorf("good-state loss = %.4f, want ≈ %.4f", goodRate, 1-k)
	}
	if math.Abs(badRate-(1-h)) > 0.15 {
		t.Errorf("bad-state loss = %.4f, want ≈ %.4f", badRate, 1-h)
	}
	if badRate < 5*goodRate {
		t.Errorf("bad-state loss %.4f not clearly above good-state %.4f", badRate, goodRate)
	}
	// Stationary occupancy of the bad state.
	piBad := p / (p + r)
	occ := float64(badRows) / float64(rows)
	if math.Abs(occ-piBad) > 0.08 {
		t.Errorf("bad-state sample occupancy = %.4f, want ≈ π_bad = %.4f", occ, piBad)
	}
	// And the empirical total must approach the configured Rate().
	total := float64(goodLost+badLost) / float64(goodPkts+badPkts)
	if math.Abs(total-ge.Rate()) > 0.02 {
		t.Errorf("total empirical loss = %.4f, want ≈ Rate() = %.4f", total, ge.Rate())
	}
}
