// Package timeline implements the discrete-event simulation core shared by
// every layer of the simulator: a simulation clock and a deterministic
// min-heap event queue.
//
// Events scheduled for the same instant fire in schedule (FIFO) order, which
// makes simulations byte-for-byte reproducible regardless of map iteration
// order or goroutine scheduling (the engine is single-threaded by design —
// discrete-event simulators gain nothing from parallelism at this scale and
// lose determinism).
//
// The queue is built for throughput: events live by value in a slot arena
// recycled through a free list, the priority queue is a 4-ary heap of slot
// indices (no interface{} boxing, no per-event allocation in steady state),
// and zero-delay events bypass the heap entirely through a same-instant
// FIFO. Model layers that schedule millions of events can avoid closure
// allocations too by implementing Actor and using ScheduleActor.
package timeline

import (
	"fmt"

	"repro/internal/units"
)

// Callback is an event body, invoked at its scheduled simulated time.
type Callback func()

// Actor is a typed event body: an object whose Act method runs at the
// scheduled time. Scheduling an existing pointer through ScheduleActor
// stores the interface pair directly in the event slot, so hot model code
// pays no closure allocation per event.
type Actor interface {
	Act()
}

// event is a value-typed queue entry. Exactly one of fn/actor is set.
type event struct {
	at    units.Time
	seq   uint64 // schedule order, breaks ties deterministically
	fn    Callback
	actor Actor
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now units.Time

	// slots is the event arena; free holds recycled slot indices. Events
	// are addressed by index so the heap and FIFO move 4-byte handles, not
	// event values, and steady-state scheduling never allocates.
	slots []event
	free  []int32

	// heap is a 4-ary min-heap of slot indices ordered by (at, seq).
	heap []int32

	// zq is the zero-delay fast path: a FIFO of slots due exactly at the
	// current instant. Every entry was scheduled while the clock already
	// stood at its timestamp, so entries are in seq order and all heap
	// events due now precede all of them (they were scheduled earlier).
	zq     []int32
	zqHead int

	seq    uint64
	fired  uint64
	budget uint64 // max events per Run/RunUntil; 0 = unlimited
}

// New returns an empty engine at simulated time zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.heap) + len(e.zq) - e.zqHead }

// Fired reports how many events have executed since construction.
func (e *Engine) Fired() uint64 { return e.fired }

// SetEventBudget caps the number of events a single Run or RunUntil may
// execute; the run returns an error when the cap is hit. Zero means
// unlimited. This is a guard against accidental livelock in model code.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// allocSlot takes a slot from the free list (or grows the arena) and fills
// it. It returns the slot index; the caller enqueues it.
func (e *Engine) allocSlot(at units.Time, fn Callback, actor Actor) int32 {
	e.seq++
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, event{})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at, s.seq, s.fn, s.actor = at, e.seq, fn, actor
	return idx
}

func (e *Engine) enqueue(delay units.Time, fn Callback, actor Actor) {
	if delay < 0 {
		delay = 0
	}
	idx := e.allocSlot(e.now+delay, fn, actor)
	if delay == 0 {
		// Same-instant events never sift: they fire after everything
		// already due now, in schedule order, which is exactly a FIFO.
		e.zq = append(e.zq, idx)
		return
	}
	e.heapPush(idx)
}

// Schedule enqueues fn to run after delay. A negative delay is an error in
// the model; it is clamped to zero so the event fires "now" rather than in
// the past, preserving the monotonic clock invariant.
func (e *Engine) Schedule(delay units.Time, fn Callback) {
	if fn == nil {
		panic("timeline: Schedule called with nil callback")
	}
	e.enqueue(delay, fn, nil)
}

// ScheduleAt enqueues fn at an absolute simulated time, which must not be
// in the past.
func (e *Engine) ScheduleAt(at units.Time, fn Callback) {
	if at < e.now {
		at = e.now
	}
	e.Schedule(at-e.now, fn)
}

// ScheduleActor enqueues a typed event to run after delay — the
// allocation-free equivalent of Schedule for hot model code.
func (e *Engine) ScheduleActor(delay units.Time, a Actor) {
	if a == nil {
		panic("timeline: ScheduleActor called with nil actor")
	}
	e.enqueue(delay, nil, a)
}

// ScheduleActorAt enqueues a typed event at an absolute simulated time,
// which must not be in the past.
func (e *Engine) ScheduleActorAt(at units.Time, a Actor) {
	if a == nil {
		panic("timeline: ScheduleActorAt called with nil actor")
	}
	if at < e.now {
		at = e.now
	}
	e.enqueue(at-e.now, nil, a)
}

// peekAt returns the earliest pending timestamp. Valid only when Pending>0.
func (e *Engine) peekAt() units.Time {
	if e.zqHead < len(e.zq) {
		return e.now // zq entries are always due at the current instant
	}
	return e.slots[e.heap[0]].at
}

// Step executes the single earliest event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	var idx int32
	switch {
	case len(e.heap) > 0 && (e.zqHead >= len(e.zq) || e.slots[e.heap[0]].at == e.now):
		// Heap events due at the current instant were scheduled before the
		// clock reached it, so they precede every same-instant FIFO entry.
		idx = e.heapPop()
	case e.zqHead < len(e.zq):
		idx = e.zq[e.zqHead]
		e.zqHead++
		if e.zqHead == len(e.zq) {
			e.zq = e.zq[:0]
			e.zqHead = 0
		}
	default:
		return false
	}
	// Copy the body out and recycle the slot before firing: the callback
	// may schedule (growing the arena and invalidating slot pointers), and
	// freeing first lets it reuse this very slot.
	s := &e.slots[idx]
	at, fn, actor := s.at, s.fn, s.actor
	s.fn, s.actor = nil, nil // release references for the GC
	e.free = append(e.free, idx)
	if at < e.now {
		// Cannot happen: enqueue clamps to now and the heap orders by time.
		panic(fmt.Sprintf("timeline: time ran backwards: %v -> %v", e.now, at))
	}
	e.now = at
	e.fired++
	if fn != nil {
		fn()
	} else {
		actor.Act()
	}
	return true
}

// Run executes events until the queue drains. It returns the final
// simulated time, or an error if the configured event budget was exceeded.
func (e *Engine) Run() (units.Time, error) {
	start := e.fired
	for e.Step() {
		if e.budget > 0 && e.fired-start > e.budget {
			return e.now, fmt.Errorf("timeline: event budget %d exceeded at t=%v (likely a scheduling livelock)", e.budget, e.now)
		}
	}
	return e.now, nil
}

// RunUntil executes events with timestamps <= deadline; events beyond the
// deadline remain queued. The clock advances to the deadline if it was
// reached without draining. Like Run, it enforces the configured event
// budget and returns an error when the cap is hit.
func (e *Engine) RunUntil(deadline units.Time) (units.Time, error) {
	start := e.fired
	for e.Pending() > 0 && e.peekAt() <= deadline {
		e.Step()
		if e.budget > 0 && e.fired-start > e.budget {
			return e.now, fmt.Errorf("timeline: event budget %d exceeded at t=%v (likely a scheduling livelock)", e.budget, e.now)
		}
	}
	if e.now < deadline && e.Pending() > 0 {
		e.now = deadline
	}
	return e.now, nil
}

// --- 4-ary index heap ordered by (at, seq) ---
//
// A 4-ary layout halves the tree depth of a binary heap: sift-downs touch
// fewer cache lines, which matters because pop dominates a drained queue's
// cost. Children of i are 4i+1..4i+4.

func (e *Engine) less(a, b int32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

func (e *Engine) heapPush(idx int32) {
	e.heap = append(e.heap, idx)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(idx, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = idx
}

func (e *Engine) heapPop() int32 {
	h := e.heap
	root := h[0]
	n := len(h) - 1
	x := h[n]
	e.heap = h[:n]
	if n > 0 {
		h = e.heap
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			best := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if e.less(h[j], h[best]) {
					best = j
				}
			}
			if !e.less(h[best], x) {
				break
			}
			h[i] = h[best]
			i = best
		}
		h[i] = x
	}
	return root
}
