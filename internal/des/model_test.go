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
// by a linear scan, so it shares no logic with the 4-ary heap, the slot
// table or the free list.

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

// check compares everything observable and the heap's own invariants.
func (h *harness) check(op string) {
	h.t.Helper()
	s, m := h.sim, h.m
	if s.Now() != m.now || s.fired != m.fired || len(s.heap) != len(m.pending) {
		h.t.Fatalf("%s: now/fired/pending = %v/%d/%d, model %v/%d/%d",
			op, s.Now(), s.fired, len(s.heap), m.now, m.fired, len(m.pending))
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
	if len(s.free)+len(s.heap) != len(s.slots) {
		h.t.Fatalf("%s: %d free + %d pending slots != %d slots", op, len(s.free), len(s.heap), len(s.slots))
	}
	for _, sl := range s.free {
		if inUse[sl] || s.slots[sl].arg != nil {
			h.t.Fatalf("%s: free slot %d is pending or keeps its arg", op, sl)
		}
	}
}

// cancelAt cancels whatever cancelable handle owns the given heap
// index; Schedule and AfterFunc events have no handle and are left alone.
func (h *harness) cancelAt(i int) {
	switch owner := h.sim.slots[h.sim.heap[i].slot].arg.(type) {
	case *Timer:
		for n, e := range h.events {
			if e == owner {
				e.Stop()
				if e.Armed() || !h.m.cancel(who{'e', n}) {
					h.t.Fatalf("cancel of pending event %d at heap[%d] failed", n, i)
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
		rng := rand.New(rand.NewPCG(seed, 12))
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
		delay := func() time.Duration { return time.Duration(rng.IntN(40)) * time.Millisecond }
		for op := 0; op < 400; op++ {
			s, m := h.sim, h.m
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
				d := delay() - 5*time.Millisecond
				h.events[n] = NewTimer(s, h.eventFn(n))
				h.events[n].Reset(d)
				if d < 0 {
					d = 0
				}
				m.schedule(m.now+d, who{'e', n})
			case k < 40: // AfterFunc / ScheduleFunc: no handle
				n := h.nextID
				h.nextID++
				d := delay()
				if rng.IntN(2) == 0 {
					s.AfterFunc(d, h.fireBoxed, &who{'e', n})
				} else {
					s.ScheduleFunc(s.Now()+d, h.fireBoxed, &who{'e', n})
				}
				m.schedule(m.now+d, who{'e', n})
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
					t.Fatalf("seed %d: event %d armed = %v before Stop, model %v", seed, n, got, want)
				}
			case k < 56: // cancel the heap root
				if len(s.heap) > 0 {
					h.cancelAt(0)
				}
			case k < 60: // cancel the heap's last element
				if len(s.heap) > 0 {
					h.cancelAt(len(s.heap) - 1)
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
			case k < 82: // NewTicker
				h.newTicker(time.Duration(rng.IntN(9)+1)*time.Millisecond, rng.IntN(6)+1)
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
					t.Fatalf("seed %d: RunLimit err = %v with %d model events pending", seed, err, len(m.pending))
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
					if e.Stop(); len(s.heap) != 6 {
						t.Fatalf("seed %d: stale handle of event %d canceled something after Reset", seed, n)
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
		yields += h.sim.yields
	}
	return yields
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
