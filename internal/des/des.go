// Package des implements a deterministic discrete-event simulation kernel.
//
// All simulated subsystems in this repository (network links, transport
// connections, brokers, producers) are driven by a single Simulator: they
// schedule callbacks at virtual times instead of sleeping on the wall
// clock. Events that share a timestamp fire in scheduling order, so a run
// with a fixed random seed is exactly reproducible.
//
// Pending events wait in a pointer-free 4-ary heap, or, when they were
// scheduled exactly one declared fixed delay ahead (DeclareDelay), in that
// delay's FIFO lane: such events are born in (time, sequence) order, so a
// lane keeps them sorted without a comparison. The run loop fires the
// earliest of the heap root and the lane heads; where an event waits never
// changes when it fires.
package des

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"
)

// ErrStopped is returned by RunLimit and RunUntilLimit when the event
// limit was hit before the event queue drained.
var ErrStopped = errors.New("des: simulation stopped")

// noSlot marks a handle (Timer, Ticker) with nothing pending.
const noSlot = -1

// canceledSeq is a canceled laned slot's seqs entry: no lane item carries
// it, so the item the cancel left behind reads as a tombstone. A laned
// event that fires leaves its seq behind, but its item has left the lane.
const canceledSeq = ^uint64(0)

// Where first found the next event: from >= 0 is a lane index.
const fromHeap = -1

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is ready to use.
//
// The queue is deliberately pointer-free. Pending events are split in
// two: heap is a 4-ary min-heap of plain-integer items ordered by
// (at, seq) — beside it, lanes of the same items in FIFOs (see lane) —
// and slots holds each pending event's callback, addressed by the
// item's slot number. Sifting, popping and recycling therefore
// compare and move integers only — no interface dispatch, no pointer
// chasing in the comparison, and above all no GC write barriers and
// nothing for the collector to scan: with a []*Event heap the barriers
// on every swap were the simulator's largest single cost whenever a GC
// cycle was in flight (EXPERIMENTS.md, "GC-quiet simulator core").
// Do not fold the callback (or any other pointer) back into item, and
// do not reintroduce container/heap.
type Simulator struct {
	now   time.Duration
	seq   uint64
	fired uint64

	heap  []item // pending events in heap order
	lanes []lane // one FIFO per declared fixed delay (DeclareDelay)
	laned int    // live (not canceled) items across the lanes
	// soonest is the earliest live lane head and soonestLane its lane,
	// while soonestOK; a lane pop, a cancel of soonest or an earlier push
	// clears it. It spares a heap event's pop a look at every lane.
	soonest     item
	soonestLane int
	soonestOK   bool
	pos         []int32 // slot -> index in heap, or laneRef(lane) (meaningful while pending)
	// seqs holds, for a slot whose event waits in a lane, that event's
	// seq: a lane item whose seq differs from its slot's is a tombstone.
	// Only laned events and their cancels write it.
	seqs  []uint64
	slots []slot // slot -> callback
	// free lists the slots not in use. A slot is released the moment its
	// event is popped or canceled, so the callback's own rescheduling
	// reuses it and a steady-state run allocates nothing.
	free []int32

	yields uint64 // Gosched calls made by run; the tests read it
}

// item is one heap or lane entry. It must stay free of pointers (see
// Simulator).
type item struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// before reports whether a fires before b: earlier time first, then
// scheduling order. It is the branching form, for the tests whose outcome
// is predictable (a sift-up that stops at once, a sift-down's exit).
func (a item) before(b item) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// beforeBit is before as 0 or 1, computed without branches: which of a
// node's children is the smallest is a coin toss to the branch predictor,
// and mispredicting it on every level was most of a pop's cost.
func (a item) beforeBit(b item) int {
	return b2i(a.at < b.at) | b2i(a.at == b.at)&b2i(a.seq < b.seq)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// slot is a pending event's callback. arg doubles as the owner check of
// the cancelable forms: a *Timer or *Ticker is pending in a slot exactly
// while the slot's arg is that handle.
type slot struct {
	fn  func(any)
	arg any
}

// lane is the FIFO of one fixed delay. Every item appended to it was
// scheduled exactly delay after the clock of its scheduling; the clock
// never runs backwards between Resets and seq only grows, so q[head:] is
// in (at, seq) order by construction. Canceled items stay in place as
// tombstones until they reach the head; dead counts them, so a lane
// without any never reads seqs.
type lane struct {
	delay time.Duration
	q     []item
	head  int
	dead  int
}

// laneRef is pos's value for a slot whose event waits in lane i: below
// every heap index, and never noSlot.
func laneRef(i int) int32 { return int32(-2 - i) }

// push appends it, first sliding the pending items to the front when the
// backing array is full and at least half of it lies behind head.
func (l *lane) push(it item) {
	if len(l.q) == cap(l.q) && l.head > 0 && 2*l.head >= len(l.q) {
		n := copy(l.q, l.q[l.head:])
		l.q, l.head = l.q[:n], 0
	}
	l.q = append(l.q, it)
}

// pop drops the head item.
func (l *lane) pop() {
	if l.head++; l.head == len(l.q) {
		l.q, l.head = l.q[:0], 0
	}
}

// New returns an empty simulator whose clock starts at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Fired returns how many events have fired since New or the last Reset.
func (s *Simulator) Fired() uint64 { return s.fired }

// DeclareDelay gives d a lane: from now on every event scheduled exactly
// d after the current virtual time waits in a FIFO instead of the heap,
// which spares it the heap's sifting. A component declares the fixed
// delays it schedules most once, at construction; declaring one again is
// a no-op. It changes where events wait, never when they fire. A
// negative d panics.
func (s *Simulator) DeclareDelay(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("des: DeclareDelay(%v)", d))
	}
	for _, l := range s.lanes {
		if l.delay == d {
			return
		}
	}
	s.lanes = append(s.lanes, lane{delay: d})
}

// Reset returns the simulator to its initial state — clock at zero, empty
// queue, sequence counter rewound — while keeping allocated capacity (the
// heap, the declared lanes and their arrays, the slot table and its free
// list). A worker can therefore reuse one Simulator across many trials
// without re-paying the warm-up allocations; the lanes stay declared,
// since a delay's lane only says where its events wait. Handles to events
// that were still pending go stale: Timer.Stop and Ticker.Stop on them do
// nothing.
func (s *Simulator) Reset() {
	for _, it := range s.heap {
		s.release(it.slot)
	}
	s.heap = s.heap[:0]
	for i := range s.lanes {
		l := &s.lanes[i]
		for _, it := range l.q[l.head:] {
			if s.seqs[it.slot] == it.seq {
				s.release(it.slot)
			}
		}
		l.q, l.head, l.dead = l.q[:0], 0, 0
	}
	s.laned, s.soonestOK = 0, false
	s.now = 0
	s.seq = 0
	s.fired = 0
}

// release returns a slot to the free list. Only arg is cleared: it is
// the per-event context and would keep a finished job reachable, whereas
// fn is a long-lived function that the slot's next use overwrites.
func (s *Simulator) release(sl int32) {
	s.slots[sl].arg = nil
	s.free = append(s.free, sl)
}

// schedule queues fn(arg) at the absolute virtual time at and returns
// the slot holding it: in the lane of delay at-Now if one is declared,
// else in the heap. Scheduling in the past (before Now) is a programming
// error and panics: it would silently reorder causality.
func (s *Simulator) schedule(at time.Duration, fn func(any), arg any) int32 {
	if at < s.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", at, s.now))
	}
	var sl int32
	if n := len(s.free); n > 0 {
		sl = s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[sl] = slot{fn, arg}
	} else {
		sl = int32(len(s.slots))
		s.slots = append(s.slots, slot{fn, arg})
		s.pos = append(s.pos, 0)
		s.seqs = append(s.seqs, 0)
	}
	it := item{at: at, seq: s.seq, slot: sl}
	s.seq++
	for i := range s.lanes {
		if l := &s.lanes[i]; l.delay == at-s.now {
			l.push(it)
			s.pos[sl] = laneRef(i)
			s.seqs[sl] = it.seq
			if it.before(s.soonest) {
				s.soonestOK = false // it heads a lane that had no live item
			}
			s.laned++
			return sl
		}
	}
	s.heap = append(s.heap, it)
	s.siftUp(len(s.heap)-1, it)
	return sl
}

// cancel removes the event pending in slot sl on behalf of owner and
// reports whether it did. A handle whose event already fired, was
// canceled, or was dropped by Reset no longer owns its slot (the slot is
// free or belongs to a later event), so a stale cancel is a no-op. owner
// is a pointer: against a slot holding a Schedule callback the comparison
// ends at the differing types and never reaches the func value.
func (s *Simulator) cancel(sl int32, owner any) bool {
	if sl < 0 || int(sl) >= len(s.slots) || s.slots[sl].arg != owner {
		return false
	}
	if p := s.pos[sl]; p < 0 {
		s.seqs[sl] = canceledSeq
		s.lanes[-2-p].dead++ // -2-p undoes laneRef
		s.laned--
		if s.soonest.slot == sl {
			s.soonestOK = false
		}
	} else {
		s.removeAt(int(p))
	}
	s.release(sl)
	return true
}

// peek returns the event that fires next and where it waits: a lane
// index or fromHeap. ok is false when nothing is pending.
func (s *Simulator) peek() (next item, from int, ok bool) {
	if s.laned == 0 {
		if len(s.heap) == 0 {
			return item{}, fromHeap, false
		}
		return s.heap[0], fromHeap, true
	}
	if !s.soonestOK {
		s.findSoonest()
	}
	if len(s.heap) > 0 && s.heap[0].before(s.soonest) {
		return s.heap[0], fromHeap, true
	}
	return s.soonest, s.soonestLane, true
}

// findSoonest sets soonest to the earliest live lane head, dropping the
// tombstones it meets at the heads. At least one live laned event must
// be pending.
func (s *Simulator) findSoonest() {
	s.soonest, s.soonestOK = item{at: math.MaxInt64, seq: math.MaxUint64}, true
	for i := range s.lanes {
		l := &s.lanes[i]
		for l.dead > 0 && s.seqs[l.q[l.head].slot] != l.q[l.head].seq {
			l.dead--
			l.pop()
		}
		if l.head < len(l.q) && l.q[l.head].before(s.soonest) {
			s.soonest, s.soonestLane = l.q[l.head], i
		}
	}
}

// removeAt takes heap[i] out by moving the last item into its place.
func (s *Simulator) removeAt(i int) {
	n := len(s.heap) - 1
	last := s.heap[n]
	s.heap = s.heap[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(s.heap[(i-1)/4]) {
		s.siftUp(i, last)
	} else {
		s.siftDown(i, last)
	}
}

// siftUp places it at index i or above; i is a hole.
func (s *Simulator) siftUp(i int, it item) {
	h := s.heap
	for i > 0 {
		p := (i - 1) / 4
		if !it.before(h[p]) {
			break
		}
		h[i] = h[p]
		s.pos[h[i].slot] = int32(i)
		i = p
	}
	h[i] = it
	s.pos[it.slot] = int32(i)
}

// siftDown places it at index i or below; i is a hole.
func (s *Simulator) siftDown(i int, it item) {
	h := s.heap
	for {
		c := 4*i + 1
		if c >= len(h) {
			break
		}
		m := c
		if c+4 <= len(h) {
			// Full node, the common case: pick the smallest child with
			// arithmetic instead of branches.
			ch := h[c : c+4 : c+4]
			a := ch[1].beforeBit(ch[0])
			b := 2 + ch[3].beforeBit(ch[2])
			a += (b - a) * ch[b&3].beforeBit(ch[a&3])
			m = c + a
		} else {
			for k := c + 1; k < len(h); k++ {
				if h[k].before(h[m]) {
					m = k
				}
			}
		}
		if !h[m].before(it) {
			break
		}
		h[i] = h[m]
		s.pos[h[i].slot] = int32(i)
		i = m
	}
	h[i] = it
	s.pos[it.slot] = int32(i)
}

// fireFunc runs a Schedule/After event: the slot's arg is the callback
// itself (a func value is pointer-shaped, so boxing it allocates nothing).
func fireFunc(a any) { a.(func())() }

// Schedule runs fn at the absolute virtual time at. Scheduling in the past
// (before Now) is a programming error and panics: it would silently
// reorder causality. The event cannot be canceled; one that may need to
// be is a Timer.
func (s *Simulator) Schedule(at time.Duration, fn func()) {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	s.schedule(at, fireFunc, fn)
}

// After runs fn d after the current virtual time. Negative d is clamped to
// zero so that jittered delays can never schedule into the past.
func (s *Simulator) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.Schedule(s.now+d, fn)
}

// ScheduleFunc runs fn(arg) at the absolute virtual time at: Schedule
// without the closure, for callers that fire often enough to pool their
// per-event state. Nothing is allocated in steady state. Passing a
// pointer-shaped arg (a pointer or a func value) avoids boxing. fn should
// be a function that outlives the run (a package-level function, not a
// per-event closure): a recycled slot keeps its last fn until reuse.
func (s *Simulator) ScheduleFunc(at time.Duration, fn func(any), arg any) {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	s.schedule(at, fn, arg)
}

// AfterFunc runs fn(arg) d after the current virtual time, with the same
// allocation-free semantics as ScheduleFunc. Negative d is clamped to
// zero.
func (s *Simulator) AfterFunc(d time.Duration, fn func(any), arg any) {
	if fn == nil {
		panic("des: schedule with nil callback")
	}
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn, arg)
}

// Run executes events in timestamp order until the queue is empty.
func (s *Simulator) Run() error {
	return s.run(-1, 0)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to deadline. Events scheduled beyond the deadline remain queued.
func (s *Simulator) RunUntil(deadline time.Duration) error {
	return s.run(deadline, 0)
}

// RunLimit executes at most n events; it exists as a runaway guard for
// tests. It returns ErrStopped if the limit was hit.
func (s *Simulator) RunLimit(n uint64) error {
	return s.run(-1, n)
}

// RunUntilLimit is RunUntil under RunLimit's guard: it executes events
// with timestamps <= deadline, at most n of them, and returns ErrStopped
// (leaving the clock where the last event put it) if the limit was hit.
func (s *Simulator) RunUntilLimit(deadline time.Duration, n uint64) error {
	return s.run(deadline, n)
}

// NextEvent names the function the pending event that fires next will
// call — for a Schedule/After event or a Timer or Ticker the caller's
// callback, not the kernel's trampoline. ok is false when nothing is
// pending. The name comes from the runtime's symbol table, so this is
// for error paths (naming a runaway), not for the run loop.
func (s *Simulator) NextEvent() (callback string, ok bool) {
	next, _, ok := s.peek()
	if !ok {
		return "", false
	}
	var fn any = s.slots[next.slot].fn
	switch arg := s.slots[next.slot].arg; codeOf(fn) {
	case codeOf(fireFunc):
		fn = arg
	case codeOf(timerFire):
		fn = arg.(*Timer).fn
	case codeOf(tickerFire):
		fn = arg.(*Ticker).fn
	}
	name := "unknown"
	if f := runtime.FuncForPC(codeOf(fn)); f != nil {
		name = f.Name()
	}
	return name, true
}

// codeOf is the entry address of a func value's code.
func codeOf(fn any) uintptr { return reflect.ValueOf(fn).Pointer() }

// running counts the simulators inside run, process-wide.
var running atomic.Int32

// yieldEvery is how many fired events separate two looks at whether run
// owes the scheduler a yield: the knee of the measured curve (DESIGN.md
// §7, "What the run loop owes the runtime").
const yieldEvery = 1024

func (s *Simulator) run(deadline time.Duration, limit uint64) error {
	running.Add(1)
	defer running.Add(-1) // deferred: a panicking callback must not leak the count
	executed := uint64(0)
	var err error
	for {
		// With no live laned event the heap root is next, as it was
		// before lanes existed; tombstones wait for a later look.
		next, from, ok := s.peek()
		if !ok {
			break
		}
		if limit > 0 && executed >= limit {
			err = ErrStopped
			break
		}
		if deadline >= 0 && next.at > deadline {
			s.now = deadline
			break
		}
		if from == fromHeap {
			s.removeAt(0)
		} else {
			s.lanes[from].pop()
			s.laned--
			s.soonestOK = false
		}
		sl := &s.slots[next.slot]
		fn, arg := sl.fn, sl.arg
		s.release(next.slot)
		s.now = next.at
		s.fired++
		executed++
		fn(arg)
		// A simulation never blocks, so when simulations hold every P the
		// GC's mark worker waits for sysmon's 10 ms preemption and the
		// write barrier stays on meanwhile: yield. With a P to spare the
		// idle mark worker runs there already and a yield only costs.
		if s.fired%yieldEvery == 0 && int(running.Load()) >= runtime.GOMAXPROCS(0) {
			s.yields++
			runtime.Gosched()
		}
	}
	if err == nil && deadline >= 0 && deadline > s.now {
		s.now = deadline
	}
	return err
}
