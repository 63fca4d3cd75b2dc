package des

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// pending is the number of events waiting to fire, in the heap and in
// the lanes.
func (s *Simulator) pending() int { return len(s.heap) + s.laned }

func TestRunExecutesInTimeOrder(t *testing.T) {
	sim := New()
	var got []int
	sim.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	sim.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	sim.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if sim.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", sim.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	sim := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		sim.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestAfterClampsNegativeDelay(t *testing.T) {
	sim := New()
	fired := false
	sim.After(-time.Second, func() { fired = true })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if sim.Now() != 0 {
		t.Errorf("Now = %v, want 0", sim.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	sim := New()
	sim.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		sim.Schedule(500*time.Millisecond, func() {})
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestScheduleNilCallbackPanics(t *testing.T) {
	sim := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	sim.Schedule(0, nil)
}

// Cancellation is a Timer's (or Ticker's) Stop: Schedule and After hand
// out no handle. The TestCancel* tests drive it through one-shot timers.

func TestCancelPreventsExecution(t *testing.T) {
	sim := New()
	fired := false
	tm := NewTimer(sim, func() { fired = true })
	tm.Reset(time.Second)
	tm.Stop()
	if sim.pending() != 0 {
		t.Error("Stop left the pending expiry queued")
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	sim := New()
	fired := false
	tm := NewTimer(sim, func() {})
	tm.Reset(time.Second)
	sim.Schedule(time.Second, func() { fired = true })
	tm.Stop()
	tm.Stop() // must not panic, corrupt the heap or take the other event
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired {
		t.Error("second Stop removed another event")
	}
}

func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	sim := New()
	var got []int
	events := make([]*Timer, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		tm := NewTimer(sim, func() { got = append(got, i) })
		tm.Reset(time.Duration(i) * time.Millisecond)
		events = append(events, tm)
	}
	events[4].Stop()
	events[7].Stop()
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	sim := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		sim.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := sim.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if sim.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", sim.Now())
	}
	if sim.pending() != 1 {
		t.Errorf("Pending = %d, want 1", sim.pending())
	}
	// Resume to the end.
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(fired) != 3 {
		t.Errorf("fired %d events after resume, want 3", len(fired))
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	sim := New()
	if err := sim.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if sim.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", sim.Now())
	}
}

func TestRunLimitGuards(t *testing.T) {
	sim := New()
	var rearm func()
	n := 0
	rearm = func() {
		n++
		sim.After(time.Millisecond, rearm)
	}
	sim.After(time.Millisecond, rearm)
	if err := sim.RunLimit(100); !errors.Is(err, ErrStopped) {
		t.Fatalf("RunLimit = %v, want ErrStopped", err)
	}
	if n != 100 {
		t.Errorf("executed %d events, want 100", n)
	}
}

// RunUntilLimit applies both bounds: a zero-delay loop before the
// deadline stops at the limit, and an ordinary run stops at the deadline
// with later events still queued.
func TestRunUntilLimitAppliesBothBounds(t *testing.T) {
	sim := New()
	n := 0
	var loop func()
	loop = func() {
		n++
		sim.After(0, loop)
	}
	sim.After(time.Millisecond, loop)
	if err := sim.RunUntilLimit(time.Hour, 100); !errors.Is(err, ErrStopped) || n != 100 {
		t.Fatalf("zero-delay loop: err %v after %d events, want ErrStopped after 100", err, n)
	}
	sim = New()
	fired := 0
	sim.After(time.Second, func() { fired++ })
	sim.After(3*time.Second, func() { fired++ })
	if err := sim.RunUntilLimit(2*time.Second, 100); err != nil || fired != 1 || sim.Now() != 2*time.Second {
		t.Fatalf("bounded run: err %v, %d fired, clock %v; want nil, 1, 2s", err, fired, sim.Now())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	sim := New()
	var got []string
	sim.Schedule(time.Second, func() {
		got = append(got, "first")
		sim.After(time.Second, func() { got = append(got, "second") })
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(got) != 2 || got[1] != "second" {
		t.Fatalf("got %v", got)
	}
	if sim.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", sim.Now())
	}
}

func TestFiredCounts(t *testing.T) {
	sim := New()
	for i := 0; i < 7; i++ {
		sim.Schedule(time.Duration(i), func() {})
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sim.Fired() != 7 {
		t.Errorf("Fired = %d, want 7", sim.Fired())
	}
}

// Property: for any multiset of delays, events fire in non-decreasing time
// order and the clock ends at the maximum delay.
func TestPropertyTimeOrdering(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		sim := New()
		var fired []time.Duration
		var maxAt time.Duration
		for _, r := range raw {
			at := time.Duration(r % 1e6)
			if at > maxAt {
				maxAt = at
			}
			sim.Schedule(at, func() { fired = append(fired, sim.Now()) })
		}
		if err := sim.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return sim.Now() == maxAt && len(fired) == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleaved schedule/cancel sequences never corrupt the heap;
// exactly the non-canceled events fire.
func TestPropertyCancelConsistency(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 0))
		sim := New()
		fired := map[int]bool{}
		events := map[int]*Timer{}
		canceled := map[int]bool{}
		total := int(n%64) + 1
		for i := 0; i < total; i++ {
			i := i
			events[i] = NewTimer(sim, func() { fired[i] = true })
			events[i].Reset(time.Duration(rng.IntN(1000)) * time.Millisecond)
		}
		for i := 0; i < total; i++ {
			if rng.Float64() < 0.4 {
				events[i].Stop()
				canceled[i] = true
			}
		}
		if err := sim.Run(); err != nil {
			return false
		}
		for i := 0; i < total; i++ {
			if canceled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimerResetAndStop(t *testing.T) {
	sim := New()
	count := 0
	timer := NewTimer(sim, func() { count++ })
	timer.Reset(time.Second)
	if !timer.Armed() {
		t.Error("timer not armed after Reset")
	}
	// Re-arming before expiry must supersede the first schedule.
	timer.Reset(2 * time.Second)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 1 {
		t.Errorf("timer fired %d times, want 1", count)
	}
	if sim.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s (reset superseded)", sim.Now())
	}
	timer.Reset(time.Second)
	timer.Stop()
	if timer.Armed() {
		t.Error("timer armed after Stop")
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 1 {
		t.Errorf("stopped timer fired; count = %d", count)
	}
}

func TestTickerPeriodicFiring(t *testing.T) {
	sim := New()
	count := 0
	var tk *Ticker
	tk = NewTicker(sim, time.Second, func() {
		count++
		if count == 5 {
			tk.Stop()
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 5 {
		t.Errorf("ticker fired %d times, want 5", count)
	}
	if sim.Now() != 5*time.Second {
		t.Errorf("Now = %v, want 5s", sim.Now())
	}
}

func TestTickerStopOutsideCallback(t *testing.T) {
	sim := New()
	count := 0
	tk := NewTicker(sim, time.Second, func() { count++ })
	sim.Schedule(3500*time.Millisecond, func() { tk.Stop() })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 3 {
		t.Errorf("ticker fired %d times, want 3", count)
	}
}

func TestTickerNonPositivePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive period did not panic")
		}
	}()
	NewTicker(New(), 0, func() {})
}

// Regression (issue 5): cancel on an already-fired event must report
// false — it really executed.
func TestCancelReportsRemoval(t *testing.T) {
	sim := New()
	fired := false
	tm := NewTimer(sim, func() { fired = true })
	tm.Reset(time.Second)
	sl := tm.slot
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || tm.Armed() {
		t.Fatalf("fired = %v, armed = %v after the expiry", fired, tm.Armed())
	}
	if sim.cancel(sl, tm) {
		t.Error("cancel returned true for an already-fired event")
	}

	tm.Reset(2 * time.Second)
	sl = tm.slot
	if !sim.cancel(sl, tm) {
		t.Error("cancel returned false for a pending event")
	}
	if sim.cancel(sl, tm) {
		t.Error("second cancel returned true")
	}
	if sim.cancel(noSlot, tm) {
		t.Error("cancel(noSlot) returned true")
	}
}

// ScheduleFunc/AfterFunc events share the sequence counter with Schedule,
// so pooled and unpooled events interleave deterministically at equal
// timestamps.
func TestScheduleFuncInterleavesWithSchedule(t *testing.T) {
	sim := New()
	var got []int
	appendVal := func(a any) { got = append(got, *(a.(*int))) }
	vals := []int{0, 1, 2, 3}
	sim.Schedule(time.Second, func() { got = append(got, vals[0]) })
	sim.ScheduleFunc(time.Second, appendVal, &vals[1])
	sim.AfterFunc(time.Second, appendVal, &vals[2])
	sim.Schedule(time.Second, func() { got = append(got, vals[3]) })
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order = %v, want ascending", got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
}

func TestScheduleFuncNilCallbackPanics(t *testing.T) {
	sim := New()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	sim.ScheduleFunc(0, nil, nil)
}

// Reset must restore the zero-state observable behavior (clock, sequence
// tie-break order, counters) so a reused simulator produces byte-identical
// trials.
func TestResetRestoresInitialState(t *testing.T) {
	sim := New()
	run := func() []int {
		var got []int
		for i := 0; i < 5; i++ {
			i := i
			sim.Schedule(time.Second, func() { got = append(got, i) })
		}
		sim.AfterFunc(time.Second, func(a any) {}, nil)
		if err := sim.RunUntil(time.Second); err != nil {
			t.Fatalf("RunUntil: %v", err)
		}
		// Leave one event pending to exercise queue draining in Reset.
		sim.Schedule(time.Hour, func() {})
		timer := NewTimer(sim, func() {})
		timer.Reset(time.Hour)
		return got
	}
	first := run()
	if sim.pending() != 2 {
		t.Fatalf("Pending = %d, want 2 before Reset", sim.pending())
	}
	sim.Reset()
	if sim.Now() != 0 || sim.fired != 0 || sim.pending() != 0 {
		t.Fatalf("after Reset: now=%v fired=%d pending=%d, want zeros",
			sim.Now(), sim.fired, sim.pending())
	}
	second := run()
	if len(first) != len(second) {
		t.Fatalf("runs differ in length: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("runs diverge after Reset: %v vs %v", first, second)
		}
	}
}

// Allocation budget (issue 5): once the free list is warm, scheduling and
// firing pooled events allocates nothing.
func TestAllocsPerEventSteadyState(t *testing.T) {
	sim := New()
	count := 0
	inc := func(a any) { *(a.(*int))++ }
	cycle := func() {
		for j := 0; j < 256; j++ {
			sim.AfterFunc(time.Duration(j%13)*time.Millisecond, inc, &count)
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	cycle() // warm the free list and heap backing array
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("pooled schedule/fire allocated %.1f per 256-event cycle, want 0", allocs)
	}
}

// Schedule and After hand out no handle, so the callback itself is the
// slot's argument: scheduling a func value that already exists allocates
// nothing (the closure, where there is one, is the caller's).
func TestScheduleAllocatesNoHandle(t *testing.T) {
	sim := New()
	count := 0
	fn := func() { count++ }
	cycle := func() {
		for j := 0; j < 64; j++ {
			sim.Schedule(sim.Now()+time.Duration(j%13)*time.Millisecond, fn)
			sim.After(time.Duration(j%7)*time.Millisecond, fn)
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("Schedule/After allocated %.1f per 128-event cycle, want 0", allocs)
	}
	if count != 12*128 { // the warm-up, AllocsPerRun's own, and its ten
		t.Errorf("fired %d callbacks, want %d", count, 12*128)
	}
}

// Timers ride the pooled path: steady-state Reset/Stop/fire cycles are
// allocation-free too, in the heap and in a lane — which keeps its
// backing array across pops, tombstones and Reset.
func TestTimerAllocsSteadyState(t *testing.T) {
	for _, laned := range []bool{false, true} {
		sim := New()
		if laned {
			sim.DeclareDelay(time.Millisecond)
		}
		fired := 0
		timers := make([]*Timer, 16)
		for i := range timers {
			timers[i] = NewTimer(sim, func() { fired++ })
		}
		cycle := func() {
			for j := 0; j < 64; j++ {
				for i, tm := range timers {
					tm.Reset(time.Millisecond)
					if i%3 == 0 {
						tm.Stop()
					} else if i%3 == 1 {
						tm.Reset(time.Millisecond)
					}
				}
				if err := sim.RunUntil(sim.Now() + time.Millisecond/2); err != nil {
					t.Fatalf("RunUntil: %v", err)
				}
				if j%8 == 7 {
					sim.Reset() // drops the pending expiries
				} else if err := sim.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			}
		}
		cycle()
		if fired == 0 || laned != (sim.lanes != nil && sim.lanes[0].q != nil) {
			t.Fatalf("laned=%v: %d fired, lanes %+v", laned, fired, sim.lanes)
		}
		if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
			t.Errorf("laned=%v: timer reset/stop/fire allocated %.1f per cycle, want 0", laned, allocs)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := New()
		for j := 0; j < 1000; j++ {
			sim.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		if err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFire is the unit behind the repository benchmark's
// des.fire_ns_d64 / _d4096: one pop plus one push at a steady queue depth.
func BenchmarkFire(b *testing.B) {
	delays := make([]time.Duration, 1024)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range delays {
		delays[i] = time.Duration(1+rng.IntN(1000)) * time.Microsecond
	}
	for _, depth := range []int{64, 4096} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			sim := New()
			next := 0
			var fire func(any)
			fire = func(any) {
				sim.AfterFunc(delays[next&1023], fire, nil)
				next++
			}
			for i := 0; i < depth; i++ {
				fire(nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			_ = sim.RunLimit(uint64(b.N))
		})
	}
}

func namedCallback()     {}
func namedFunc(any)      {}
func namedTickCallback() {}

// NextEvent names the function the next event will call, looking through
// the kernel's own trampolines to the caller's callback.
func TestNextEventNamesTheCallback(t *testing.T) {
	sim := New()
	sim.DeclareDelay(time.Millisecond)
	if _, ok := sim.NextEvent(); ok {
		t.Fatal("an empty simulator reports a next event")
	}
	tm := NewTimer(sim, namedCallback)
	tk := NewTicker(sim, time.Millisecond, namedTickCallback) // laned
	for _, tc := range []struct {
		arm  func()
		want string
	}{
		{func() { sim.Schedule(time.Microsecond, namedCallback) }, "des.namedCallback"},
		{func() { sim.AfterFunc(time.Microsecond, namedFunc, nil) }, "des.namedFunc"},
		{func() { tm.Reset(time.Microsecond) }, "des.namedCallback"},
		{func() {}, "des.namedTickCallback"},
	} {
		tc.arm()
		if name, ok := sim.NextEvent(); !ok || !strings.HasSuffix(name, tc.want) {
			t.Errorf("NextEvent = %q, %v; want *%s", name, ok, tc.want)
		}
		if err := sim.RunLimit(1); err != nil && !errors.Is(err, ErrStopped) {
			t.Fatal(err)
		}
	}
	tk.Stop()
}
