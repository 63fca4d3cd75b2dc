package des

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// The model-based test drives a Simulator and a reference model with the
// same random interleaving of every scheduling, cancelling and running
// operation, and requires the same firing log from both. The model keeps
// pending events in a plain slice and fires the (at, seq) minimum found
// by a linear scan, so it shares no logic with the 4-ary heap, the lanes,
// the slot table or the free list.

// who names a callback: a one-shot event (scheduled without a handle, or
// a one-shot Timer when it is to be cancelable), its chained child, a
// timer or a ticker.
type who struct {
	kind byte // 'e' event, 'c' chained child of event n, 't' timer, 'k' ticker
	n    int
}

type firing struct {
	who who
	at  time.Duration
}

type modelEvent struct {
	at  time.Duration
	seq uint64
	who who
}

type model struct {
	now     time.Duration
	seq     uint64
	fired   uint64
	pending []modelEvent
	log     []firing

	chain   map[int]time.Duration // event n schedules a child this much later
	rearm   map[int]int           // timer n re-arms itself this many more times
	period  map[int]time.Duration // ticker n's period
	ticks   map[int]int           // ticker n stops itself after this many more ticks
	stopped map[int]bool          // ticker n was stopped
}

func (m *model) schedule(at time.Duration, w who) {
	m.pending = append(m.pending, modelEvent{at, m.seq, w})
	m.seq++
}

func (m *model) cancel(w who) bool {
	for i, ev := range m.pending {
		if ev.who == w {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// run fires events up to deadline (if >= 0) and limit (if > 0), like
// Simulator.run.
func (m *model) run(deadline time.Duration, limit int) {
	for n := 0; len(m.pending) > 0 && (limit == 0 || n < limit); n++ {
		min := 0
		for i, ev := range m.pending {
			if b := m.pending[min]; ev.at < b.at || (ev.at == b.at && ev.seq < b.seq) {
				min = i
			}
		}
		ev := m.pending[min]
		if deadline >= 0 && ev.at > deadline {
			break
		}
		m.pending = append(m.pending[:min], m.pending[min+1:]...)
		m.now = ev.at
		m.fired++
		m.log = append(m.log, firing{ev.who, m.now})
		switch w := ev.who; w.kind {
		case 'e':
			if d, ok := m.chain[w.n]; ok {
				m.schedule(m.now+d, who{'c', w.n})
			}
		case 't':
			if m.rearm[w.n] > 0 {
				m.rearm[w.n]--
				m.schedule(m.now+3*time.Millisecond, w)
			}
		case 'k':
			if m.ticks[w.n]--; m.ticks[w.n] <= 0 {
				m.stopped[w.n] = true
			} else {
				m.schedule(m.now+m.period[w.n], w)
			}
		}
	}
	if deadline > m.now {
		m.now = deadline
	}
}

// harness is the real simulator plus the handles the operations act on.
// The self re-arm and self-stop countdowns are kept apart from the
// model's, so that neither side reads the other's progress.
type harness struct {
	t       *testing.T
	sim     *Simulator
	m       *model
	log     []firing
	events  map[int]*Timer // cancelable one-shot events, fired and stale ones included
	timers  []*Timer
	rearm   map[int]int // timer n re-arms itself this many more times
	tickers []*Ticker
	ticks   map[int]int // ticker n stops itself after this many more ticks
	nextID  int
}

func (h *harness) record(w who) { h.log = append(h.log, firing{w, h.sim.Now()}) }

func (h *harness) fireBoxed(a any) { h.record(*a.(*who)) }

// eventFn is the callback of one-shot event n on the real side.
func (h *harness) eventFn(n int) func() {
	return func() {
		h.record(who{'e', n})
		if d, ok := h.m.chain[n]; ok {
			h.sim.AfterFunc(d, h.fireBoxed, &who{'c', n})
		}
	}
}

func (h *harness) newTimer() {
	n := len(h.timers)
	var tm *Timer
	tm = NewTimer(h.sim, func() {
		h.record(who{'t', n})
		if h.rearm[n] > 0 {
			h.rearm[n]--
			tm.Reset(3 * time.Millisecond)
		}
	})
	h.timers = append(h.timers, tm)
}

func (h *harness) newTicker(period time.Duration, limit int) {
	n := len(h.tickers)
	h.m.period[n], h.m.ticks[n] = period, limit
	h.ticks[n] = limit
	var tk *Ticker
	tk = NewTicker(h.sim, period, func() {
		h.record(who{'k', n})
		if h.ticks[n]--; h.ticks[n] <= 0 {
			tk.Stop()
		}
	})
	h.tickers = append(h.tickers, tk)
	h.m.schedule(h.m.now+period, who{'k', n})
}

// check compares everything observable and the queue's own invariants.
func (h *harness) check(op string) {
	h.t.Helper()
	s, m := h.sim, h.m
	if s.Now() != m.now || s.fired != m.fired || s.pending() != len(m.pending) {
		h.t.Fatalf("%s: now/fired/pending = %v/%d/%d, model %v/%d/%d",
			op, s.Now(), s.fired, s.pending(), m.now, m.fired, len(m.pending))
	}
	if len(h.log) != len(m.log) {
		h.t.Fatalf("%s: fired %d events, model %d", op, len(h.log), len(m.log))
	}
	for i := range h.log {
		if h.log[i] != m.log[i] {
			h.t.Fatalf("%s: firing %d = %+v, model %+v", op, i, h.log[i], m.log[i])
		}
	}
	h.log, m.log = h.log[:0], m.log[:0]
	inUse := map[int32]bool{}
	for i, it := range s.heap {
		if i > 0 && it.before(s.heap[(i-1)/4]) {
			h.t.Fatalf("%s: heap order broken at %d", op, i)
		}
		if s.pos[it.slot] != int32(i) || inUse[it.slot] {
			h.t.Fatalf("%s: slot %d of heap[%d] has pos %d (in use twice: %v)", op, it.slot, i, s.pos[it.slot], inUse[it.slot])
		}
		inUse[it.slot] = true
	}
	live := 0
	for i, l := range s.lanes {
		dead := 0
		for j, it := range l.q[l.head:] {
			if j > 0 && !l.q[l.head+j-1].before(it) {
				h.t.Fatalf("%s: lane %v out of order at %d", op, l.delay, l.head+j)
			}
			if s.seqs[it.slot] != it.seq {
				dead++
				continue
			}
			if it.at < s.Now() || it.at > s.Now()+l.delay || s.pos[it.slot] != laneRef(i) || inUse[it.slot] {
				h.t.Fatalf("%s: lane %v item %+v: pos %d, in use twice %v", op, l.delay, it, s.pos[it.slot], inUse[it.slot])
			}
			inUse[it.slot] = true
			live++
		}
		if dead != l.dead {
			h.t.Fatalf("%s: lane %v holds %d tombstones, counts %d", op, l.delay, dead, l.dead)
		}
	}
	if live != s.laned {
		h.t.Fatalf("%s: %d live lane items, counted %d", op, live, s.laned)
	}
	if len(s.free)+s.pending() != len(s.slots) {
		h.t.Fatalf("%s: %d free + %d pending slots != %d slots", op, len(s.free), s.pending(), len(s.slots))
	}
	for _, sl := range s.free {
		if inUse[sl] || s.slots[sl].arg != nil {
			h.t.Fatalf("%s: free slot %d is pending or keeps its arg", op, sl)
		}
	}
}

// cancelAt cancels whatever cancelable handle owns the event in slot
// sl; Schedule and AfterFunc events have no handle and are left alone.
func (h *harness) cancelAt(sl int32) {
	switch owner := h.sim.slots[sl].arg.(type) {
	case *Timer:
		for n, e := range h.events {
			if e == owner {
				e.Stop()
				if e.Armed() || !h.m.cancel(who{'e', n}) {
					h.t.Fatalf("cancel of pending event %d in slot %d failed", n, sl)
				}
			}
		}
		for n, tm := range h.timers {
			if tm == owner {
				tm.Stop()
				h.m.cancel(who{'t', n})
			}
		}
	case *Ticker:
		for n, tk := range h.tickers {
			if tk == owner {
				tk.Stop()
				h.m.cancel(who{'k', n})
				h.m.stopped[n] = true
			}
		}
	}
}

// The interleavings run once with the simulator alone on one P, where run
// yields to the scheduler between events, and once with a P to spare,
// where it does not: the firing sequence may not depend on it.
func TestModelRandomInterleavings(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			yields := modelRandomInterleavings(t)
			if (yields > 0) != (procs == 1) {
				t.Errorf("%d yields during the interleavings", yields)
			}
		})
	}
}

// modelRandomInterleavings returns how many times the simulators yielded.
func modelRandomInterleavings(t *testing.T) (yields uint64) {
	for seed := uint64(1); seed <= 150; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			yields += runModel(t, rand.New(rand.NewPCG(seed, 12)), 400)
		})
	}
	return yields
}

// FuzzModel drives the same harness with the fuzzer's bytes as the
// draws: each byte picks one choice, and the interleaving ends when the
// bytes do.
func FuzzModel(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		b := make([]byte, 300)
		rng := rand.New(rand.NewPCG(seed, 34))
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		runModel(t, &byteDraws{b: b}, min(len(b), 400))
	})
}

// draws is where an interleaving takes its choices from.
type draws interface{ IntN(n int) int }

// byteDraws hands out one byte per choice, then zeros.
type byteDraws struct{ b []byte }

func (d *byteDraws) IntN(n int) int {
	if len(d.b) == 0 {
		return 0
	}
	v := int(d.b[0])
	d.b = d.b[1:]
	return v % n
}

// laneDelays are the fixed delays the interleavings declare; delay draws
// each of them often, so laned and heap events tie and interleave.
var laneDelays = [2]time.Duration{2 * time.Millisecond, 3 * time.Millisecond}

// runModel plays up to ops random operations on a fresh simulator and
// the model, checking after each, then drains both. It returns how many
// times the simulator yielded.
func runModel(t *testing.T, rng draws, ops int) uint64 {
	h := &harness{t: t, sim: New(), events: map[int]*Timer{}, rearm: map[int]int{}, ticks: map[int]int{}}
	h.m = &model{chain: map[int]time.Duration{}, rearm: map[int]int{},
		period: map[int]time.Duration{}, ticks: map[int]int{}, stopped: map[int]bool{}}
	// Start both event counts just short of a yield, so that one falls
	// inside the interleaving (a seed fires ~100 events between Resets).
	h.sim.fired = yieldEvery - 20
	h.m.fired = h.sim.fired
	for i := 0; i < 3; i++ {
		h.newTimer()
	}
	// One lane exists from the start, as a component's would; the other
	// is declared part-way, over events already waiting at its delay.
	h.sim.DeclareDelay(laneDelays[0])
	declareAt := rng.IntN(ops + 1)
	delay := func() time.Duration {
		if k := rng.IntN(6); k < len(laneDelays) {
			return laneDelays[k]
		}
		return time.Duration(rng.IntN(40)) * time.Millisecond
	}
	for op := 0; op < ops; op++ {
		s, m := h.sim, h.m
		if op == declareAt {
			s.DeclareDelay(laneDelays[1])
		}
		switch k := rng.IntN(100); {
		case k < 8: // Schedule, sometimes with a chained child
			n := h.nextID
			h.nextID++
			if rng.IntN(3) == 0 {
				m.chain[n] = delay()
			}
			at := s.Now() + delay()
			s.Schedule(at, h.eventFn(n))
			m.schedule(at, who{'e', n})
		case k < 14: // After, negative delays clamp to now
			n := h.nextID
			h.nextID++
			d := delay() - 5*time.Millisecond
			s.After(d, h.eventFn(n))
			if d < 0 {
				d = 0
			}
			m.schedule(m.now+d, who{'e', n})
		case k < 24: // a cancelable one-shot: a Timer armed once, negative delays clamp to now
			n := h.nextID
			h.nextID++
			if rng.IntN(3) == 0 {
				m.chain[n] = delay()
			}
			d := delay()
			if rng.IntN(2) == 0 {
				d -= 5 * time.Millisecond
			}
			h.events[n] = NewTimer(s, h.eventFn(n))
			h.events[n].Reset(d)
			if d < 0 {
				d = 0
			}
			m.schedule(m.now+d, who{'e', n})
		case k < 37: // AfterFunc / ScheduleFunc: no handle
			n := h.nextID
			h.nextID++
			d := delay()
			if rng.IntN(2) == 0 {
				s.AfterFunc(d, h.fireBoxed, &who{'e', n})
			} else {
				s.ScheduleFunc(s.Now()+d, h.fireBoxed, &who{'e', n})
			}
			m.schedule(m.now+d, who{'e', n})
		case k < 40: // cancel any item of a lane: a tombstone before, at or behind the head
			if len(s.lanes) == 0 {
				continue
			}
			l := s.lanes[rng.IntN(len(s.lanes))]
			if n := len(l.q) - l.head; n > 0 {
				it := l.q[l.head+rng.IntN(n)]
				if s.seqs[it.slot] == it.seq {
					h.cancelAt(it.slot)
				}
			}
		case k < 52: // Stop any one-shot ever issued: pending, fired, stopped, stale
			if len(h.events) == 0 {
				continue
			}
			n := rng.IntN(h.nextID)
			e := h.events[n]
			if e == nil {
				continue
			}
			want := m.cancel(who{'e', n})
			got := e.Armed()
			e.Stop()
			if got != want || e.Armed() {
				t.Fatalf("event %d armed = %v before Stop, model %v", n, got, want)
			}
		case k < 56: // cancel the heap root
			if len(s.heap) > 0 {
				h.cancelAt(s.heap[0].slot)
			}
		case k < 60: // cancel the heap's last element
			if len(s.heap) > 0 {
				h.cancelAt(s.heap[len(s.heap)-1].slot)
			}
		case k < 72: // Timer.Reset, sometimes self re-arming
			n := rng.IntN(len(h.timers))
			d := delay()
			m.cancel(who{'t', n})
			m.rearm[n] = rng.IntN(3)
			h.rearm[n] = m.rearm[n]
			h.timers[n].Reset(d)
			m.schedule(m.now+d, who{'t', n})
			if !h.timers[n].Armed() {
				t.Fatalf("timer %d unarmed after Reset", n)
			}
		case k < 78: // Timer.Stop
			n := rng.IntN(len(h.timers))
			h.timers[n].Stop()
			m.cancel(who{'t', n})
			if h.timers[n].Armed() {
				t.Fatalf("timer %d armed after Stop", n)
			}
		case k < 82: // NewTicker, its period sometimes a lane delay
			period := time.Duration(rng.IntN(9)+1) * time.Millisecond
			if k := rng.IntN(4); k < len(laneDelays) {
				period = laneDelays[k]
			}
			h.newTicker(period, rng.IntN(6)+1)
		case k < 85: // Ticker.Stop from outside the callback, repeated Stops included
			if len(h.tickers) > 0 {
				n := rng.IntN(len(h.tickers))
				h.tickers[n].Stop()
				m.cancel(who{'k', n})
				m.stopped[n] = true
			}
		case k < 92: // RunUntil
			d := s.Now() + delay()
			if err := s.RunUntil(d); err != nil {
				t.Fatal(err)
			}
			m.run(d, 0)
		case k < 96: // RunLimit
			n := rng.IntN(5) + 1
			err := s.RunLimit(uint64(n))
			m.run(-1, n)
			if (err == ErrStopped) != (len(m.pending) > 0) {
				t.Fatalf("RunLimit err = %v with %d model events pending", err, len(m.pending))
			}
		case k < 98: // Run to completion
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			m.run(-1, 0)
		default: // Reset and reuse: every outstanding handle goes stale
			s.Reset()
			*m = model{chain: m.chain, rearm: m.rearm, period: m.period, ticks: m.ticks, stopped: m.stopped}
			// New events take over the recycled slots first, so a stale
			// handle that still acted on its old slot would hit them.
			for i := 0; i < 6; i++ {
				n := h.nextID
				h.nextID++
				d := delay()
				s.AfterFunc(d, h.fireBoxed, &who{'e', n})
				m.schedule(d, who{'e', n})
			}
			for n, e := range h.events {
				if e.Stop(); s.pending() != 6 {
					t.Fatalf("stale handle of event %d canceled something after Reset", n)
				}
			}
			for _, tm := range h.timers {
				tm.Stop()
			}
			for n, tk := range h.tickers {
				tk.Stop()
				m.stopped[n] = true
			}
		}
		h.check("op")
	}
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	h.m.run(-1, 0)
	h.check("final run")
	return h.sim.yields
}

// A handle whose event a Reset dropped must not cancel the event that
// has since taken over its slot.
func TestStaleHandleCannotCancelSlotSuccessor(t *testing.T) {
	sim := New()
	old := NewTimer(sim, func() {})
	old.Reset(time.Millisecond)
	sim.Reset()
	fired := false
	successor := NewTimer(sim, func() { fired = true })
	successor.Reset(2 * time.Millisecond)
	if !old.Armed() || successor.slot != old.slot {
		t.Fatalf("successor took slot %d, want the recycled slot %d the stale handle still names", successor.slot, old.slot)
	}
	old.Stop()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("successor did not fire")
	}
}
