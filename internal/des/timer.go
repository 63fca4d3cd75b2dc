package des

import "time"

// Timer is a resettable one-shot timer bound to a Simulator, analogous to
// time.Timer but in virtual time. The zero value is not usable; create
// timers with NewTimer.
//
// Arming and firing a timer allocates nothing in steady state.
type Timer struct {
	sim  *Simulator
	fn   func()
	slot int32 // the pending expiry's slot, noSlot when unarmed
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func NewTimer(sim *Simulator, fn func()) *Timer {
	if sim == nil {
		panic("des: NewTimer with nil simulator")
	}
	if fn == nil {
		panic("des: NewTimer with nil callback")
	}
	return &Timer{sim: sim, fn: fn, slot: noSlot}
}

// timerFire disarms the timer before invoking the callback: the slot was
// released when the expiry was popped, and fn may re-arm the timer.
func timerFire(a any) {
	t := a.(*Timer)
	t.slot = noSlot
	t.fn()
}

// Reset (re)arms the timer to fire d from now, canceling any pending
// expiry first. Negative d is clamped to zero.
func (t *Timer) Reset(d time.Duration) {
	t.Stop()
	if d < 0 {
		d = 0
	}
	t.slot = t.sim.schedule(t.sim.now+d, timerFire, t)
}

// Stop cancels a pending expiry. Stopping an unarmed timer is a no-op.
func (t *Timer) Stop() {
	if t.slot != noSlot {
		t.sim.cancel(t.slot, t)
		t.slot = noSlot
	}
}

// Armed reports whether the timer has a pending expiry.
func (t *Timer) Armed() bool { return t.slot != noSlot }

// Ticker repeatedly invokes a callback at a fixed virtual-time period
// until stopped.
type Ticker struct {
	sim     *Simulator
	period  time.Duration
	fn      func()
	slot    int32 // the pending tick's slot
	stopped bool
}

// NewTicker returns a started ticker firing every period. A non-positive
// period panics: it would busy-loop the simulator at a single timestamp.
func NewTicker(sim *Simulator, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("des: NewTicker with non-positive period")
	}
	if fn == nil {
		panic("des: NewTicker with nil callback")
	}
	t := &Ticker{sim: sim, period: period, fn: fn}
	t.schedule()
	return t
}

func tickerFire(a any) {
	t := a.(*Ticker)
	t.slot = noSlot
	t.fn()
	if !t.stopped { // fn may have called Stop
		t.schedule()
	}
}

func (t *Ticker) schedule() {
	t.slot = t.sim.schedule(t.sim.now+t.period, tickerFire, t)
}

// Stop cancels future ticks. It may be called from inside the tick
// callback.
func (t *Ticker) Stop() {
	t.sim.cancel(t.slot, t)
	t.slot = noSlot
	t.stopped = true
}
