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
// recycled through a free list, and the priority queue orders distinct
// instants, not events. Large models fire storms of events on the same
// instant (every member of a collective finishes a chunk phase at the same
// tick), so each pending timestamp owns a FIFO bucket of slot indices and
// only the timestamps sit in a 4-ary heap; an event landing on an instant
// that is already pending is one map lookup and an append, with no sifting.
// Zero-delay events bypass the buckets entirely through a same-instant
// FIFO. Nothing allocates per event in steady state, and model layers that
// schedule millions of events can avoid closure allocations too by
// implementing Actor and using ScheduleActor.
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

// event is a value-typed queue entry. Exactly one of fn/actor is set. Its
// timestamp is its bucket's (or, in the zero-delay FIFO, the current
// instant), and its schedule order is its position in that FIFO.
type event struct {
	fn    Callback
	actor Actor
}

// bucket is the FIFO of events pending at one instant. Events are appended
// in schedule order, so firing a bucket front to back is (at, seq) order.
type bucket struct {
	at    units.Time
	slots []int32
	head  int
}

// instant is a heap entry: a pending timestamp and the bucket holding its
// events. The timestamp is stored inline so sifting compares plain values.
type instant struct {
	at units.Time
	b  int32
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now units.Time

	// slots is the event arena; free holds recycled slot indices. Events
	// are addressed by index so the buckets and FIFO move 4-byte handles,
	// not event values, and steady-state scheduling never allocates.
	slots []event
	free  []int32

	// instants is a 4-ary min-heap of the distinct pending timestamps;
	// index maps each of them to its bucket. Emptied buckets return to
	// freeBuckets with their slot capacity, so a recycled bucket appends
	// without allocating.
	instants    []instant
	buckets     []bucket
	freeBuckets []int32
	index       map[units.Time]int32
	queued      int // events waiting in buckets

	// zq is the zero-delay fast path: a FIFO of slots due exactly at the
	// current instant. Every entry was scheduled while the clock already
	// stood at its timestamp, so all bucketed events due now precede all
	// of them (they were scheduled earlier).
	zq     []int32
	zqHead int

	// executed counts the events that ran; extra counts the further
	// events they stood for (see Represent).
	executed, extra uint64
	budget          uint64 // max executed events per Run/RunUntil; 0 = unlimited
}

// New returns an empty engine at simulated time zero.
func New() *Engine {
	return &Engine{index: make(map[units.Time]int32)}
}

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return e.queued + len(e.zq) - e.zqHead }

// Fired reports how many events have fired since construction, counting
// the events representatives stood for (see Represent).
func (e *Engine) Fired() uint64 { return e.executed + e.extra }

// Executed reports how many events have executed since construction.
func (e *Engine) Executed() uint64 { return e.executed }

// Represent records n further events that are counted without executing
// them — the copies a representative event stands for, or an event the
// model knows would do nothing: they count in Fired, not in Executed.
func (e *Engine) Represent(n uint64) { e.extra += n }

// SetEventBudget caps the number of events a single Run or RunUntil may
// execute; the run returns an error when the cap is hit. Zero means
// unlimited. This is a guard against accidental livelock in model code.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// allocSlot takes a slot from the free list (or grows the arena) and fills
// it. It returns the slot index; the caller enqueues it.
func (e *Engine) allocSlot(fn Callback, actor Actor) int32 {
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, event{})
		idx = int32(len(e.slots) - 1)
	}
	e.slots[idx] = event{fn: fn, actor: actor}
	return idx
}

func (e *Engine) enqueue(delay units.Time, fn Callback, actor Actor) {
	idx := e.allocSlot(fn, actor)
	if delay <= 0 {
		// Same-instant events never wait on a bucket: they fire after
		// everything already due now, in schedule order, which is exactly
		// a FIFO.
		e.zq = append(e.zq, idx)
		return
	}
	at := e.now + delay
	b, ok := e.index[at]
	if !ok {
		b = e.openBucket(at)
	}
	bk := &e.buckets[b]
	bk.slots = append(bk.slots, idx)
	e.queued++
}

// openBucket starts the FIFO for a newly pending instant.
func (e *Engine) openBucket(at units.Time) int32 {
	var b int32
	if n := len(e.freeBuckets); n > 0 {
		b = e.freeBuckets[n-1]
		e.freeBuckets = e.freeBuckets[:n-1]
	} else {
		e.buckets = append(e.buckets, bucket{})
		b = int32(len(e.buckets) - 1)
	}
	e.buckets[b].at = at
	e.index[at] = b
	e.heapPush(instant{at: at, b: b})
	return b
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
	return e.instants[0].at
}

// Step executes the single earliest event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	var idx int32
	at := e.now
	switch {
	case len(e.instants) > 0 && (e.zqHead >= len(e.zq) || e.instants[0].at == e.now):
		// Bucketed events due at the current instant were scheduled before
		// the clock reached it, so they precede every same-instant FIFO
		// entry.
		top := e.instants[0]
		bk := &e.buckets[top.b]
		idx = bk.slots[bk.head]
		bk.head++
		if bk.head == len(bk.slots) {
			bk.slots, bk.head = bk.slots[:0], 0
			delete(e.index, top.at)
			e.freeBuckets = append(e.freeBuckets, top.b)
			e.heapPop()
		}
		e.queued--
		at = top.at
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
	fn, actor := s.fn, s.actor
	*s = event{} // release references for the GC
	e.free = append(e.free, idx)
	if at < e.now {
		// Cannot happen: enqueue never schedules into the past and the heap
		// orders instants by time.
		panic(fmt.Sprintf("timeline: time ran backwards: %v -> %v", e.now, at))
	}
	e.now = at
	e.executed++
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
	start := e.executed
	for e.Step() {
		if e.budget > 0 && e.executed-start > e.budget {
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
	start := e.executed
	for e.Pending() > 0 && e.peekAt() <= deadline {
		e.Step()
		if e.budget > 0 && e.executed-start > e.budget {
			return e.now, fmt.Errorf("timeline: event budget %d exceeded at t=%v (likely a scheduling livelock)", e.budget, e.now)
		}
	}
	if e.now < deadline && e.Pending() > 0 {
		e.now = deadline
	}
	return e.now, nil
}

// --- 4-ary min-heap of pending instants ---
//
// A 4-ary layout halves the tree depth of a binary heap: sift-downs touch
// fewer cache lines. Children of i are 4i+1..4i+4. Timestamps in the heap
// are distinct, so the time alone orders it.

func (e *Engine) heapPush(x instant) {
	e.instants = append(e.instants, x)
	h := e.instants
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at <= x.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (e *Engine) heapPop() {
	h := e.instants
	n := len(h) - 1
	x := h[n]
	e.instants = h[:n]
	if n == 0 {
		return
	}
	h = e.instants
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
			if h[j].at < h[best].at {
				best = j
			}
		}
		if h[best].at >= x.at {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}
