package timeline

import (
	"container/heap"
	"testing"

	"repro/internal/units"
)

// FuzzEngineOrder drives the Engine and a container/heap reference model
// ordered by (time, schedule sequence) with the same event plan, and
// requires identical firing sequences. The plan draws dense timestamp
// ties, zero and negative delays, events scheduled from inside events,
// both scheduling flavours (closures and actors, relative and absolute),
// and RunUntil deadlines with external events scheduled between slices.
func FuzzEngineOrder(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(2))
	f.Add(uint64(7), uint8(0), uint8(2), uint8(3)) // zero delays only
	f.Add(uint64(42), uint8(1), uint8(4), uint8(0))
	f.Add(uint64(99), uint8(40), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, span, fanout, slices uint8) {
		p := orderPlan{seed: seed, span: int64(span % 64), fanout: int(fanout % 5)}
		got := newEngineModel(p)
		want := newRefModel(p)
		roots := 1 + int(seed%8)
		for i := 0; i < roots; i++ {
			d := p.delay(^uint64(i))
			got.schedule(d, p.flavour(^uint64(i)))
			want.schedule(d)
		}
		for j := 0; j < int(slices%6); j++ {
			r := mix(seed ^ uint64(j)<<40)
			deadline := got.eng.Now() + units.Time(int64(r%uint64(4*p.span+3)))
			if _, err := got.eng.RunUntil(deadline); err != nil {
				t.Fatal(err)
			}
			want.runUntil(deadline)
			compare(t, got, want)
			// An event scheduled from outside after the clock may have
			// advanced to the deadline without firing anything.
			d := p.delay(r)
			got.schedule(d, p.flavour(r))
			want.schedule(d)
		}
		if _, err := got.eng.Run(); err != nil {
			t.Fatal(err)
		}
		want.run()
		compare(t, got, want)
	})
}

// firing is one executed event: its plan ID and the clock when it ran.
type firing struct {
	id int
	at units.Time
}

// orderPlan decides, for every event ID, what the event schedules when it
// fires. IDs are assigned in schedule order, so two queues that fire in the
// same order build the same event population.
type orderPlan struct {
	seed   uint64
	span   int64
	fanout int
}

// maxOrderEvents bounds a plan so zero-delay chains terminate.
const maxOrderEvents = 3000

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// delay draws a delay in [0, span], or -1 (clamped to zero) one time in 16.
func (p orderPlan) delay(key uint64) units.Time {
	r := mix(p.seed ^ key)
	if r%16 == 0 {
		return -1
	}
	return units.Time(int64(r>>8) % (p.span + 1))
}

// flavour picks how an event is scheduled: bit 0 selects an actor, bit 1
// an absolute time.
func (p orderPlan) flavour(key uint64) int { return int(mix(p.seed^key^0x5bd1e995) >> 60 & 3) }

// children returns how many events the event with this ID schedules.
func (p orderPlan) children(id int) int {
	return int(mix(p.seed^uint64(id)<<20) % uint64(p.fanout+1))
}

func childKey(id, k int) uint64 { return uint64(id)<<8 | uint64(k) }

// engineModel runs a plan on the Engine.
type engineModel struct {
	plan  orderPlan
	eng   *Engine
	next  int
	fired []firing
}

type orderActor struct {
	m  *engineModel
	id int
}

func (a *orderActor) Act() { a.m.fire(a.id) }

func newEngineModel(p orderPlan) *engineModel { return &engineModel{plan: p, eng: New()} }

func (m *engineModel) schedule(d units.Time, flavour int) {
	if m.next >= maxOrderEvents {
		return
	}
	id := m.next
	m.next++
	switch flavour {
	case 0:
		m.eng.Schedule(d, func() { m.fire(id) })
	case 1:
		m.eng.ScheduleActor(d, &orderActor{m: m, id: id})
	case 2:
		m.eng.ScheduleAt(m.eng.Now()+d, func() { m.fire(id) })
	default:
		m.eng.ScheduleActorAt(m.eng.Now()+d, &orderActor{m: m, id: id})
	}
}

func (m *engineModel) fire(id int) {
	m.fired = append(m.fired, firing{id: id, at: m.eng.Now()})
	for k := 0; k < m.plan.children(id); k++ {
		key := childKey(id, k)
		m.schedule(m.plan.delay(key), m.plan.flavour(key))
	}
}

// refModel is the specification: a binary heap ordered by (at, seq).
type refModel struct {
	plan  orderPlan
	now   units.Time
	seq   uint64
	next  int
	q     refQueue
	fired []firing
}

type refEvent struct {
	at  units.Time
	seq uint64
	id  int
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

func newRefModel(p orderPlan) *refModel { return &refModel{plan: p} }

func (m *refModel) schedule(d units.Time) {
	if m.next >= maxOrderEvents {
		return
	}
	if d < 0 {
		d = 0
	}
	m.seq++
	heap.Push(&m.q, refEvent{at: m.now + d, seq: m.seq, id: m.next})
	m.next++
}

func (m *refModel) step() {
	ev := heap.Pop(&m.q).(refEvent)
	m.now = ev.at
	m.fired = append(m.fired, firing{id: ev.id, at: ev.at})
	for k := 0; k < m.plan.children(ev.id); k++ {
		m.schedule(m.plan.delay(childKey(ev.id, k)))
	}
}

func (m *refModel) run() {
	for len(m.q) > 0 {
		m.step()
	}
}

func (m *refModel) runUntil(deadline units.Time) {
	for len(m.q) > 0 && m.q[0].at <= deadline {
		m.step()
	}
	if m.now < deadline && len(m.q) > 0 {
		m.now = deadline
	}
}

func compare(t *testing.T, got *engineModel, want *refModel) {
	t.Helper()
	if len(got.fired) != len(want.fired) {
		t.Fatalf("engine fired %d events, reference %d", len(got.fired), len(want.fired))
	}
	for i := range want.fired {
		if got.fired[i] != want.fired[i] {
			t.Fatalf("firing %d: engine ran event %d at %v, reference event %d at %v",
				i, got.fired[i].id, got.fired[i].at, want.fired[i].id, want.fired[i].at)
		}
	}
	if got.eng.Now() != want.now || got.eng.Pending() != len(want.q) || got.eng.Fired() != uint64(len(want.fired)) {
		t.Fatalf("engine now=%v pending=%d fired=%d, reference now=%v pending=%d fired=%d",
			got.eng.Now(), got.eng.Pending(), got.eng.Fired(), want.now, len(want.q), len(want.fired))
	}
}
