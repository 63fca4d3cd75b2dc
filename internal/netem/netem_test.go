package netem

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/stats"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0)) }

// send offers a packet whose delivery runs fn.
func send(l *Link, size int, fn func()) {
	l.SendFn(size, func(any, bool) { fn() }, nil)
}

func TestZeroConfigDeliversImmediately(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration = -1
	send(l, 100, func() { at = sim.Now() })
	if at != -1 {
		t.Fatal("deliver ran synchronously")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 0 {
		t.Errorf("delivered at %v, want 0", at)
	}
	c := l.Counters()
	if c.Offered != 1 || c.Delivered != 1 || c.BytesDelivery != 100 {
		t.Errorf("counters = %+v", c)
	}
}

func TestConstantDelay(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{Delay: stats.Constant{Value: 50}})
	if err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	send(l, 10, func() { at = sim.Now() })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 50*time.Millisecond {
		t.Errorf("delivered at %v, want 50ms", at)
	}
}

func TestBandwidthSerialisation(t *testing.T) {
	sim := des.New()
	// 8000 bit/s: a 1000-byte packet takes exactly 1 s to serialise.
	l, err := NewLink(sim, Config{Bandwidth: 8000})
	if err != nil {
		t.Fatal(err)
	}
	var first, second time.Duration
	send(l, 1000, func() { first = sim.Now() })
	send(l, 1000, func() { second = sim.Now() })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if first != time.Second {
		t.Errorf("first delivery at %v, want 1s", first)
	}
	if second != 2*time.Second {
		t.Errorf("second delivery at %v, want 2s (queued behind first)", second)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{Bandwidth: 8000, QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for i := 0; i < 5; i++ {
		send(l, 1000, func() { delivered++ })
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if delivered != 2 {
		t.Errorf("delivered %d, want 2", delivered)
	}
	if c.LostOverflow != 3 {
		t.Errorf("LostOverflow = %d, want 3", c.LostOverflow)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{Bandwidth: 8000, QueueLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	send(l, 1000, func() { delivered++ })
	// Offer the next packet after the first fully serialised: queue has
	// room again.
	sim.Schedule(1500*time.Millisecond, func() {
		send(l, 1000, func() { delivered++ })
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 {
		t.Errorf("delivered %d, want 2", delivered)
	}
	if l.Counters().LostOverflow != 0 {
		t.Errorf("LostOverflow = %d, want 0", l.Counters().LostOverflow)
	}
}

func TestLossModelDrops(t *testing.T) {
	sim := des.New()
	loss, err := stats.NewBernoulli(0.5, rng(1))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLink(sim, Config{Loss: loss})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	const n = 10000
	for i := 0; i < n; i++ {
		send(l, 1, func() { delivered++ })
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	got := float64(delivered) / n
	if math.Abs(got-0.5) > 0.03 {
		t.Errorf("delivery ratio = %v, want ≈0.5", got)
	}
	c := l.Counters()
	if c.LostRandom+c.Delivered != n {
		t.Errorf("counters do not add up: %+v", c)
	}
}

func TestFIFOUnderRandomDelay(t *testing.T) {
	sim := des.New()
	d, err := stats.NewPareto(10, 1.5, rng(2))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLink(sim, Config{Delay: d})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	for i := 0; i < 200; i++ {
		i := i
		send(l, 1, func() { order = append(order, i) })
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("reordered delivery at position %d: %v", i, v)
		}
	}
}

func TestSetDelayAndLossMidFlight(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{Delay: stats.Constant{Value: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var times []time.Duration
	send(l, 1, func() { times = append(times, sim.Now()) })
	sim.Schedule(time.Second, func() {
		l.SetDelay(stats.Constant{Value: 200})
		send(l, 1, func() { times = append(times, sim.Now()) })
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 10*time.Millisecond {
		t.Errorf("first at %v, want 10ms", times[0])
	}
	if times[1] != time.Second+200*time.Millisecond {
		t.Errorf("second at %v, want 1.2s", times[1])
	}
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(nil, Config{}); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := NewLink(des.New(), Config{Bandwidth: -1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := NewLink(des.New(), Config{QueueLimit: -1}); err == nil {
		t.Error("negative queue limit accepted")
	}
}

func TestSendPanicsOnBadArgs(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("negative size", func() { send(l, -1, func() {}) })
	mustPanic("nil deliver", func() { l.SendFn(1, nil, nil) })
}

func TestPathDuplex(t *testing.T) {
	sim := des.New()
	p, err := NewPath(sim,
		Config{Delay: stats.Constant{Value: 30}},
		Config{Delay: stats.Constant{Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	var reqAt, respAt time.Duration
	send(p.Fwd, 100, func() {
		reqAt = sim.Now()
		send(p.Rev, 10, func() { respAt = sim.Now() })
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if reqAt != 30*time.Millisecond {
		t.Errorf("request at %v, want 30ms", reqAt)
	}
	if respAt != 35*time.Millisecond {
		t.Errorf("response at %v, want 35ms", respAt)
	}
}

func TestPathSetLossSharesModel(t *testing.T) {
	sim := des.New()
	p, err := NewPath(sim, Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ge, err := stats.NewGilbertElliot(0.3, 0.3, 1, 0, rng(4))
	if err != nil {
		t.Fatal(err)
	}
	p.SetLoss(ge)
	if p.Fwd.LossRate() != p.Rev.LossRate() {
		t.Error("directions report different loss rates")
	}
	if p.Fwd.LossRate() != ge.Rate() {
		t.Errorf("LossRate = %v, want %v", p.Fwd.LossRate(), ge.Rate())
	}
}

// Property: with loss p and n offered packets, Offered == Delivered +
// LostRandom and the delivery ratio is within 5 sigma of 1-p.
func TestPropertyLossAccounting(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := float64(pRaw%90) / 100
		sim := des.New()
		loss, err := stats.NewBernoulli(p, rng(seed))
		if err != nil {
			return false
		}
		l, err := NewLink(sim, Config{Loss: loss})
		if err != nil {
			return false
		}
		const n = 2000
		delivered := 0
		for i := 0; i < n; i++ {
			send(l, 1, func() { delivered++ })
		}
		if err := sim.Run(); err != nil {
			return false
		}
		c := l.Counters()
		if c.Offered != n || c.Delivered+c.LostRandom != n {
			return false
		}
		sigma := math.Sqrt(p*(1-p)/n) + 1e-9
		return math.Abs(float64(delivered)/n-(1-p)) <= 5*sigma+0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTraceApplySwitchesConditions(t *testing.T) {
	sim := des.New()
	p, err := NewPath(sim, Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := Trace{
		{Start: 0, DelayMs: 10},
		{Start: time.Second, DelayMs: 100},
	}
	if err := tr.Apply(sim, p, 1); err != nil {
		t.Fatal(err)
	}
	var times []time.Duration
	send(p.Fwd, 1, func() { times = append(times, sim.Now()) })
	sim.Schedule(2*time.Second, func() {
		send(p.Fwd, 1, func() { times = append(times, sim.Now()) })
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 10*time.Millisecond {
		t.Errorf("segment-1 delivery at %v, want 10ms", times[0])
	}
	if times[1] != 2*time.Second+100*time.Millisecond {
		t.Errorf("segment-2 delivery at %v, want 2.1s", times[1])
	}
}

func TestTraceApplyRejectsUnsorted(t *testing.T) {
	sim := des.New()
	p, err := NewPath(sim, Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := Trace{{Start: time.Second}, {Start: 0}}
	if err := tr.Apply(sim, p, 1); err == nil {
		t.Error("unsorted trace accepted")
	}
	var empty Trace
	if err := empty.Apply(nil, p, 1); err == nil {
		t.Error("nil simulator accepted")
	}
}

func TestConditionAt(t *testing.T) {
	tr := Trace{
		{Start: 0, DelayMs: 1},
		{Start: time.Minute, DelayMs: 2},
	}
	seg, ok := tr.ConditionAt(30 * time.Second)
	if !ok || seg.DelayMs != 1 {
		t.Errorf("ConditionAt(30s) = %+v, %v", seg, ok)
	}
	seg, ok = tr.ConditionAt(2 * time.Minute)
	if !ok || seg.DelayMs != 2 {
		t.Errorf("ConditionAt(2m) = %+v, %v", seg, ok)
	}
	early := Trace{{Start: time.Second}}
	if _, ok := early.ConditionAt(0); ok {
		t.Error("found segment before first start")
	}
}

func TestTraceSpecGenerate(t *testing.T) {
	spec := DefaultTraceSpec()
	tr, err := spec.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	wantSegments := int(spec.Duration / spec.Interval)
	if len(tr) != wantSegments {
		t.Fatalf("segments = %d, want %d", len(tr), wantSegments)
	}
	var delays, losses []float64
	for _, seg := range tr {
		delays = append(delays, seg.DelayMs)
		losses = append(losses, seg.LossRate)
	}
	// Delay draws respect the Pareto scale floor and the 500 ms cap.
	for _, d := range delays {
		if d < spec.DelayScaleMs || d > 500 {
			t.Fatalf("delay %v outside [%v, 500]", d, spec.DelayScaleMs)
		}
	}
	// The trace must contain both calm and lossy intervals, or the
	// dynamic-configuration experiment is vacuous.
	calm, lossy := false, false
	for _, l := range losses {
		if l < 0.02 {
			calm = true
		}
		if l > 0.08 {
			lossy = true
		}
	}
	if !calm || !lossy {
		t.Errorf("trace lacks variety: calm=%v lossy=%v", calm, lossy)
	}
}

func TestTraceSpecDeterminism(t *testing.T) {
	spec := DefaultTraceSpec()
	a, err := spec.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(42)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Series(), b.Series()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("segment %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

func TestTraceSpecValidation(t *testing.T) {
	bad := DefaultTraceSpec()
	bad.Duration = 0
	if _, err := bad.Generate(1); err == nil {
		t.Error("zero duration accepted")
	}
	bad = DefaultTraceSpec()
	bad.Interval = bad.Duration * 2
	if _, err := bad.Generate(1); err == nil {
		t.Error("interval > duration accepted")
	}
}

func TestSeries(t *testing.T) {
	tr := Trace{
		{Start: 0, DelayMs: 12},
		{Start: time.Second},
	}
	s := tr.Series()
	if len(s) != 2 {
		t.Fatalf("len = %d", len(s))
	}
	if s[0].DelayMs != 12 || s[0].Loss != 0 {
		t.Errorf("point 0 = %+v", s[0])
	}
	if s[1].DelayMs != 0 {
		t.Errorf("point 1 = %+v", s[1])
	}
}

func BenchmarkLinkSend(b *testing.B) {
	sim := des.New()
	loss, err := stats.NewBernoulli(0.1, rng(1))
	if err != nil {
		b.Fatal(err)
	}
	l, err := NewLink(sim, Config{
		Delay:     stats.Constant{Value: 10},
		Loss:      loss,
		Bandwidth: 100e6,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		send(l, 1500, func() {})
		if i%1024 == 0 {
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestFaultLossOverlay(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	l.SetFaultLoss(stats.AlwaysLoss{})
	if l.LossRate() != 1 {
		t.Errorf("LossRate under partition = %v, want 1", l.LossRate())
	}
	send(l, 10, func() { delivered++ })
	l.SetFaultLoss(nil)
	send(l, 10, func() { delivered++ })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered = %d, want 1 (partition drops, clear restores)", delivered)
	}
	c := l.Counters()
	if c.LostRandom != 1 {
		t.Errorf("LostRandom = %d, want 1 (overlay drops land in LostRandom)", c.LostRandom)
	}
}

func TestFaultDelayOverlayAddsToBase(t *testing.T) {
	sim := des.New()
	l, err := NewLink(sim, Config{Delay: stats.Constant{Value: 10}})
	if err != nil {
		t.Fatal(err)
	}
	l.SetFaultDelay(stats.Constant{Value: 25})
	if _, delayMs, _ := l.State(); delayMs != 35 {
		t.Errorf("State delay = %v ms, want 35", delayMs)
	}
	var at time.Duration
	send(l, 10, func() { at = sim.Now() })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 35*time.Millisecond {
		t.Errorf("delivered at %v, want 35ms", at)
	}
	l.SetFaultDelay(nil)
	if _, delayMs, _ := l.State(); delayMs != 10 {
		t.Errorf("cleared State delay = %v ms, want 10", delayMs)
	}
}

// SendFn's result is the packet's ownership: false exactly when the link
// dropped it — a loss counter grew and the callback will never run — for
// each of the three causes, and true exactly when the callback will.
func TestSendFnReportsWhetherItTookThePacket(t *testing.T) {
	bernoulli := func(p float64, seed uint64) stats.LossModel {
		m, err := stats.NewBernoulli(p, rng(seed))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for _, tc := range []struct {
		cause   string
		cfg     Config
		overlay stats.LossModel
		counter func(Counters) uint64
	}{
		{"base loss model", Config{Loss: bernoulli(0.3, 1)}, nil,
			func(c Counters) uint64 { return c.LostRandom }},
		{"fault overlay", Config{}, bernoulli(0.3, 2),
			func(c Counters) uint64 { return c.LostRandom }},
		{"queue overflow", Config{Bandwidth: 1e6, QueueLimit: 3}, nil,
			func(c Counters) uint64 { return c.LostOverflow }},
	} {
		sim := des.New()
		l, err := NewLink(sim, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		l.SetFaultLoss(tc.overlay)
		taken, refused, delivered := 0, 0, 0
		deliver := func(any, bool) { delivered++ }
		for i := 0; i < 400; i++ {
			before := l.Counters()
			took := l.SendFn(1000, deliver, nil)
			after := l.Counters()
			dropped := after.LostRandom+after.LostOverflow > before.LostRandom+before.LostOverflow
			if took == dropped {
				t.Fatalf("%s, packet %d: SendFn = %v with loss counters %+v -> %+v", tc.cause, i, took, before, after)
			}
			if took {
				taken++
			} else {
				refused++
			}
			if i%8 == 7 { // let the device queue drain now and then
				if err := sim.RunUntil(sim.Now() + 20*time.Millisecond); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if taken == 0 || refused == 0 || delivered != taken || tc.counter(l.Counters()) != uint64(refused) {
			t.Errorf("%s: %d taken, %d refused, %d delivered, counters %+v", tc.cause, taken, refused, delivered, l.Counters())
		}
	}
}
