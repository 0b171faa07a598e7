// Package network implements ASTRA-sim 2.0's analytical network backend
// (Section IV-C). Instead of simulating packets cycle by cycle, every
// message is costed with the paper's first-order equation
//
//	Time = LinkLatency × Hops + MessageSize / LinkBandwidth
//
// augmented with per-NPU, per-dimension link serialization: each NPU owns
// one shared-bandwidth link per topology dimension, and both the bytes it
// sends and the bytes it receives on that dimension serialize on that link.
// This reproduces ASTRA-sim's per-dimension traffic accounting (Table IV
// counts sent+received bytes per NPU) while remaining congestion-free for
// topology-aware hierarchical collectives, the regime the paper targets.
//
// Backend also speaks the paper's NetworkAPI protocol (Snippet 2):
// SimSend / SimRecv pairs rendezvous on (src, dst, tag) and invoke
// callbacks on completion, and SimSchedule defers arbitrary work.
//
// The backend is allocation-free per message in steady state: routes are
// computed arithmetically (no coordinate slices), multi-hop sends and
// deliveries run through pooled typed events, and the rendezvous queues
// recycle their small slices through per-backend free lists.
package network

import (
	"fmt"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Message describes a delivered transmission, passed to receive callbacks.
type Message struct {
	Src, Dst int
	Tag      int
	Size     units.ByteSize
	// Dim is the topology dimension the message travelled on, or -1 for a
	// multi-dimension (dimension-ordered) route.
	Dim int
}

// Backend is the analytical network backend.
type Backend struct {
	eng *timeline.Engine
	top *topology.Topology

	// Link occupancy has three levels, so every collective phase costs
	// O(1) instead of O(members). A link's free time is the latest of:
	//
	//   - dimFloor[dim], advanced by whole-machine phases;
	//   - its block's floor in blocks[dim], advanced by the sub-group
	//     phases of the partition that owns the dimension (phase.go);
	//   - linkFree[npu*dims+dim], the lazily allocated per-link overlay
	//     of point-to-point traffic, stalls and settled block floors.
	//
	// dimMaxLink[dim] is the latest free time of any link of the
	// dimension, so a whole-machine phase never walks the lower levels.
	linkFree   []units.Time
	dimFloor   []units.Time
	dimMaxLink []units.Time
	blocks     []blockFloors
	parts      []partition
	npus, dims int
	bw         []units.Bandwidth // effective bandwidth per dimension

	// Rendezvous state for SimSend/SimRecv matching. Queue objects and
	// their backing slices are recycled through the pools below.
	arrived map[matchKey]*msgQueue
	waiting map[matchKey]*cbQueue

	// Free lists for the per-message hot-path objects (legRuns keep their
	// leg slices across reuse, so routed sends need no separate slice pool).
	msgQueues  []*msgQueue
	cbQueues   []*cbQueue
	deliveries []*delivery
	legRuns    []*legRun
	flowDones  []*flowDone

	// chargeTransit enables first-order congestion modeling: ring
	// messages occupy every transit link, not just the endpoints.
	chargeTransit bool

	// fc, when non-nil, arbitrates this backend's flows against flows on
	// other backends sharing the same physical fabric (the multi-job
	// cluster layer). Nil — the default — costs nothing on the hot path.
	// arbitrated[dim] caches fc.Arbitrates(dim).
	fc         FlowController
	arbitrated []bool

	// bwScale[dim], when allocated, scales each dimension's effective link
	// bandwidth (the scenario layer's degradation primitive); nil means
	// every dimension runs clean.
	bwScale []float64

	stats Stats
}

type matchKey struct {
	src, dst, tag int
}

// msgQueue is a FIFO of arrived-but-unclaimed messages for one match key.
// Popping advances head instead of reslicing so the backing array survives
// intact and returns to the pool when the queue drains.
type msgQueue struct {
	items []Message
	head  int
}

// cbQueue is the mirror FIFO of posted-but-unmatched receive callbacks.
type cbQueue struct {
	items []func(Message)
	head  int
}

// Stats holds per-dimension traffic totals. Every reservation adds to them
// in O(1), whichever occupancy level — dimension floor, block floor or
// per-link overlay — it charges.
type Stats struct {
	// BytesPerDim[d] is the total bytes that crossed dimension d,
	// counted once per message.
	BytesPerDim []units.ByteSize
	// EndpointBytesPerDim[d] is the bytes charged to NPU links of
	// dimension d, sent plus received, summed over NPUs. Divided by the
	// NPU count it is the paper's per-NPU "message size per dimension".
	EndpointBytesPerDim []units.ByteSize
	Messages            int64
}

// NewBackend builds an analytical backend over a topology, driven by the
// given event engine.
func NewBackend(eng *timeline.Engine, top *topology.Topology) *Backend {
	n, d := top.NumNPUs(), top.NumDims()
	b := &Backend{
		eng:        eng,
		top:        top,
		dimFloor:   make([]units.Time, d),
		dimMaxLink: make([]units.Time, d),
		blocks:     make([]blockFloors, d),
		npus:       n,
		dims:       d,
		bw:         make([]units.Bandwidth, d),
		arrived:    make(map[matchKey]*msgQueue),
		waiting:    make(map[matchKey]*cbQueue),
	}
	for i, dim := range top.Dims {
		b.blocks[i].part = -1
		b.bw[i] = dim.EffectiveBandwidth()
	}
	b.stats.BytesPerDim = make([]units.ByteSize, d)
	b.stats.EndpointBytesPerDim = make([]units.ByteSize, d)
	// The per-link array and the block floors are O(NPUs) state; they
	// allocate lazily on first use so backend setup — and whole-machine
	// collective workloads, which touch neither — stay O(dims).
	return b
}

// ensureLinks allocates the per-link overlay on the first point-to-point
// reservation. A zero entry means the link has no individual backlog beyond
// the dimension floor.
func (b *Backend) ensureLinks() {
	if b.linkFree == nil {
		b.linkFree = make([]units.Time, b.npus*b.dims)
	}
}

// FlowController observes dimension-level flow activity for cross-backend
// bandwidth arbitration: several backends space-sharing one physical
// fabric (co-scheduled training jobs) each report their flows to a shared
// controller, which answers with the fair-sharing contention factor. All
// calls happen on the single-threaded event engine, so implementations
// need no locking.
//
// A flow on a dimension the controller does not arbitrate runs at factor 1
// and reports nothing: its flow-finish event is not scheduled but
// represented (timeline.Engine.Represent), so the engine's Fired count is
// the same as if every dimension were arbitrated.
type FlowController interface {
	// Arbitrates reports whether flows on the backend's dimension dim are
	// reported to the controller. It is read once, when the controller is
	// attached, and must not change afterwards.
	Arbitrates(dim int) bool
	// FlowStarted reports a transfer starting on the backend's dimension
	// dim. The returned factor (>= 1) divides the transfer's effective
	// bandwidth; 1 leaves the transfer untouched, bit for bit.
	FlowStarted(dim int) float64
	// FlowFinished reports that a transfer accounted by FlowStarted has
	// left the network (its links are free again).
	FlowFinished(dim int)
}

// SetFlowController attaches a cross-backend flow arbiter; nil (the
// default) disables arbitration and keeps the per-message hot path
// allocation-free and byte-identical to an isolated backend.
func (b *Backend) SetFlowController(fc FlowController) {
	b.fc, b.arbitrated = fc, nil
	if fc != nil {
		b.arbitrated = make([]bool, b.dims)
		for d := range b.arbitrated {
			b.arbitrated[d] = fc.Arbitrates(d)
		}
	}
}

// flowStarted reports a flow starting on dim to the flow controller and
// returns its contention factor and whether its end must be reported
// through a flowDone event. A flow the controller does not arbitrate
// represents its flow-finish event instead.
func (b *Backend) flowStarted(dim int) (factor float64, arbitrated bool) {
	if b.fc == nil {
		return 1, false
	}
	if !b.arbitrated[dim] {
		b.eng.Represent(1)
		return 1, false
	}
	return b.fc.FlowStarted(dim), true
}

// transferTime is the serialization time of size bytes on dim, stretched
// by the dimension's bandwidth scale and then by the cross-backend
// fair-sharing contention factor (>= 1). Scale 1 and factor 1 leave it
// untouched, bit for bit.
func (b *Backend) transferTime(dim int, size units.ByteSize, factor float64) units.Time {
	dur := b.bw[dim].TransferTime(size)
	if b.bwScale != nil {
		if s := b.bwScale[dim]; s != 1 {
			dur = units.Time(float64(dur) / s)
		}
	}
	if factor > 1 {
		dur = units.Time(float64(dur) * factor)
	}
	return dur
}

// SetDimBandwidthScale sets dimension dim's effective bandwidth to scale ×
// nominal (0 < scale ≤ 1 degrades, 1 restores; larger-than-1 upgrades are
// allowed). The change applies to reservations made from now on — in-flight
// transfers keep the serialization time they were charged at issue, the
// standard fluid-model convention — so dimension aggregates are updated
// incrementally, never rescanned. Out-of-range dimensions and non-positive
// scales are ignored: scenario events degrade to no-ops rather than panic.
func (b *Backend) SetDimBandwidthScale(dim int, scale float64) {
	if dim < 0 || dim >= b.dims || scale <= 0 {
		return
	}
	if b.bwScale == nil {
		if scale == 1 {
			return
		}
		b.bwScale = make([]float64, b.dims)
		for i := range b.bwScale {
			b.bwScale[i] = 1
		}
	}
	b.bwScale[dim] = scale
}

// DimBandwidthScale returns dimension dim's current bandwidth scale
// (1 when clean or out of range).
func (b *Backend) DimBandwidthScale(dim int) float64 {
	if b.bwScale == nil || dim < 0 || dim >= b.dims {
		return 1
	}
	return b.bwScale[dim]
}

// StallNPULinks marks every link of one NPU busy until the given instant —
// the scenario layer's NPU-failure/recovery primitive. Traffic touching the
// NPU queues behind the stall, and synchronous collective phases gate on it
// as their slowest member, which is exactly how a hung rank manifests to
// the rest of a training job. Each dimension's block floors are settled,
// then the NPU's links and the dimension's cached maximum are bumped;
// out-of-range NPUs are ignored so scenario events never panic.
func (b *Backend) StallNPULinks(npu int, until units.Time) {
	if npu < 0 || npu >= b.npus {
		return
	}
	b.ensureLinks()
	base := npu * b.dims
	for d := 0; d < b.dims; d++ {
		b.settle(d)
		b.linkFree[base+d] = max(b.linkFree[base+d], until)
		b.dimMaxLink[d] = max(b.dimMaxLink[d], until)
	}
}

// flowDone is a pooled typed event reporting a transfer's end to the flow
// controller — the "recompute on flow finish" half of fair sharing.
type flowDone struct {
	b   *Backend
	dim int
}

// Act implements timeline.Actor.
func (f *flowDone) Act() {
	b, dim := f.b, f.dim
	b.flowDones = append(b.flowDones, f)
	b.fc.FlowFinished(dim)
}

func (b *Backend) getFlowDone(dim int) *flowDone {
	if n := len(b.flowDones); n > 0 {
		f := b.flowDones[n-1]
		b.flowDones = b.flowDones[:n-1]
		f.dim = dim
		return f
	}
	return &flowDone{b: b, dim: dim}
}

// Topology returns the backend's topology.
func (b *Backend) Topology() *topology.Topology { return b.top }

// Stats returns a reference to the accumulated traffic counters.
func (b *Backend) Stats() *Stats { return &b.stats }

// Now returns the current simulated time (NetworkAPI sim_get_time).
func (b *Backend) Now() units.Time { return b.eng.Now() }

// SimSchedule runs fn after delay of simulated time (NetworkAPI
// sim_schedule).
func (b *Backend) SimSchedule(delay units.Time, fn func()) { b.eng.Schedule(delay, fn) }

// ScheduleActor defers a typed event — the allocation-free SimSchedule used
// by hot model code (the collective engine's chunk waves).
func (b *Backend) ScheduleActor(delay units.Time, a timeline.Actor) { b.eng.ScheduleActor(delay, a) }

func (b *Backend) linkIdx(npu, dim int) int { return npu*b.dims + dim }

// reserve charges the serialization time of size bytes to both endpoint
// links of a dimension and returns (src egress end, delivery-ready end).
// Each link is an independent FIFO queue (store-and-forward buffering
// between endpoints): the transfer occupies the source link and the
// destination link for size/BW each, and is deliverable when the later of
// the two finishes. Charging both ends makes sent and received bytes share
// each NPU's per-dimension bandwidth, which is the accounting the paper's
// Table IV uses; queueing the ends independently avoids artificial
// convoy-chains around rings when every NPU sends and receives at once.
// factor (>= 1) is the cross-backend fair-sharing contention multiplier;
// 1 leaves the serialization time untouched. The caller settles dim.
func (b *Backend) reserve(src, dst, dim int, size units.ByteSize, factor float64) (units.Time, units.Time) {
	dur := b.transferTime(dim, size, factor)
	b.ensureLinks()
	// The dimension floor lower-bounds every link of the dim.
	now := max(b.eng.Now(), b.dimFloor[dim])
	si, di := b.linkIdx(src, dim), b.linkIdx(dst, dim)
	srcEnd := max(b.linkFree[si], now) + dur
	dstEnd := max(b.linkFree[di], now) + dur
	b.linkFree[si], b.linkFree[di] = srcEnd, dstEnd
	ready := max(srcEnd, dstEnd)
	b.dimMaxLink[dim] = max(b.dimMaxLink[dim], ready)
	return srcEnd, ready
}

// delivery is a pooled typed event that hands a delivered message to its
// receiver — either a plain callback or an internal sink (a routed send's
// next leg). One pooled object replaces the per-message closure capture.
type delivery struct {
	b    *Backend
	msg  Message
	cb   func(Message)
	sink deliverySink
}

// deliverySink receives internal deliveries without a closure; *legRun and
// *Backend (final rendezvous matching) implement it.
type deliverySink interface {
	deliverMsg(Message)
}

// Act implements timeline.Actor.
func (d *delivery) Act() {
	b, msg, cb, sink := d.b, d.msg, d.cb, d.sink
	d.cb, d.sink = nil, nil
	b.deliveries = append(b.deliveries, d)
	switch {
	case sink != nil:
		sink.deliverMsg(msg)
	case cb != nil:
		cb(msg)
	}
}

func (b *Backend) getDelivery() *delivery {
	if n := len(b.deliveries); n > 0 {
		d := b.deliveries[n-1]
		b.deliveries = b.deliveries[:n-1]
		return d
	}
	return &delivery{b: b}
}

// SendOnDim transmits size bytes between two NPUs that differ only in
// dimension dim. sentCB fires when src's link frees; deliveredCB fires when
// the message lands at dst. This is the fast path used by collective
// algorithms, which by construction communicate one dimension at a time.
func (b *Backend) SendOnDim(src, dst, dim int, size units.ByteSize, tag int, sentCB func(), deliveredCB func(Message)) {
	b.sendOnDim(src, dst, dim, size, tag, sentCB, deliveredCB, nil)
}

func (b *Backend) sendOnDim(src, dst, dim int, size units.ByteSize, tag int, sentCB func(), deliveredCB func(Message), sink deliverySink) {
	if src == dst {
		panic(fmt.Sprintf("network: self-send on dim %d by NPU %d", dim, src))
	}
	d := b.top.Dims[dim]
	// Walk both ranks' mixed-radix positions: validates that the endpoints
	// differ only in dim and extracts the dim positions without
	// materializing coordinate slices.
	hops := 0
	w := b.top.WalkPositions(src, dst)
	for i, sp, tp, ok := w.Next(); ok; i, sp, tp, ok = w.Next() {
		if i == dim {
			hops = d.Hops(sp, tp)
		} else if sp != tp {
			panic(fmt.Sprintf("network: SendOnDim(%d->%d, dim %d) endpoints differ in dim %d", src, dst, dim, i))
		}
	}
	factor, arbitrated := b.flowStarted(dim)
	b.settle(dim)
	var srcEnd, ready units.Time
	if b.chargeTransit {
		srcEnd, ready = b.reserveTransit(src, dst, dim, size, factor)
	} else {
		srcEnd, ready = b.reserve(src, dst, dim, size, factor)
	}
	if arbitrated {
		// The flow occupies its links until the transfer is deliverable;
		// report the end through a pooled typed event so fair shares are
		// recomputed the instant it frees.
		b.eng.ScheduleActorAt(ready, b.getFlowDone(dim))
	}
	arrive := ready + units.Time(hops)*d.Latency

	b.stats.Messages++
	b.stats.BytesPerDim[dim] += size
	b.stats.EndpointBytesPerDim[dim] += 2 * size

	if sentCB != nil {
		b.eng.ScheduleAt(srcEnd, sentCB)
	}
	del := b.getDelivery()
	del.msg = Message{Src: src, Dst: dst, Tag: tag, Size: size, Dim: dim}
	del.cb, del.sink = deliveredCB, sink
	b.eng.ScheduleActorAt(arrive, del)
}

// SimSend transmits size bytes from src to dst with a message tag
// (NetworkAPI sim_send). sentCB fires when the message has left src (its
// link is free again); the matching SimRecv's callback fires on delivery.
// Either callback may be nil. Routing is dimension-ordered: the message
// traverses, in ascending dimension order, every dimension where the
// endpoint coordinates differ, serializing on each dimension's links.
func (b *Backend) SimSend(src, dst, tag int, size units.ByteSize, sentCB func()) {
	if src == dst {
		// Local loopback: deliver instantly.
		if sentCB != nil {
			b.eng.Schedule(0, sentCB)
		}
		del := b.getDelivery()
		del.msg = Message{Src: src, Dst: dst, Tag: tag, Size: size, Dim: -1}
		del.sink = b
		b.eng.ScheduleActor(0, del)
		return
	}
	r := b.getLegRun()
	r.src, r.dst, r.tag, r.size = src, dst, tag, size
	r.legs = b.route(src, dst, r.legs[:0])
	r.idx = 0
	r.issue(sentCB)
}

// route appends the dimension-ordered hop legs from src to dst onto legs
// (the last leg ends at dst). Positions are walked digit by digit from the
// ranks, so routing allocates nothing beyond the caller's leg slice.
func (b *Backend) route(src, dst int, legs []hopLeg) []hopLeg {
	cur := src
	stride := 1
	w := b.top.WalkPositions(src, dst)
	for dim, sp, tp, ok := w.Next(); ok; dim, sp, tp, ok = w.Next() {
		if sp != tp {
			next := cur + (tp-sp)*stride
			legs = append(legs, hopLeg{dim: dim, from: cur, to: next})
			cur = next
		}
		stride *= b.top.Dims[dim].Size
	}
	return legs
}

type hopLeg struct {
	dim      int
	from, to int
}

// legRun is a pooled in-flight routed send: it owns its leg slice for the
// message's lifetime and re-issues itself as each leg delivers.
type legRun struct {
	b        *Backend
	src, dst int
	tag      int
	size     units.ByteSize
	legs     []hopLeg
	idx      int
}

func (b *Backend) getLegRun() *legRun {
	if n := len(b.legRuns); n > 0 {
		r := b.legRuns[n-1]
		b.legRuns = b.legRuns[:n-1]
		return r
	}
	return &legRun{b: b}
}

func (r *legRun) issue(sentCB func()) {
	leg := r.legs[r.idx]
	r.b.sendOnDim(leg.from, leg.to, leg.dim, r.size, r.tag, sentCB, nil, r)
}

// deliverMsg implements deliverySink: one leg landed, issue the next or
// complete the route and recycle.
func (r *legRun) deliverMsg(Message) {
	r.idx++
	if r.idx < len(r.legs) {
		r.issue(nil)
		return
	}
	b := r.b
	msg := Message{Src: r.src, Dst: r.dst, Tag: r.tag, Size: r.size, Dim: -1}
	b.legRuns = append(b.legRuns, r)
	b.deliver(msg)
}

// SimRecv registers interest in a message (src, dst, tag) (NetworkAPI
// sim_recv). recvCB fires when the matching send has been delivered;
// posting the recv after the message arrived fires it immediately.
func (b *Backend) SimRecv(src, dst, tag int, size units.ByteSize, recvCB func(Message)) {
	if recvCB == nil {
		panic("network: SimRecv requires a callback")
	}
	k := matchKey{src: src, dst: dst, tag: tag}
	if q := b.arrived[k]; q != nil {
		msg := q.items[q.head]
		q.head++
		if q.head == len(q.items) {
			delete(b.arrived, k)
			b.putMsgQueue(q)
		}
		del := b.getDelivery()
		del.msg = msg
		del.cb = recvCB
		b.eng.ScheduleActor(0, del)
		return
	}
	q := b.waiting[k]
	if q == nil {
		q = b.getCBQueue()
		b.waiting[k] = q
	}
	q.items = append(q.items, recvCB)
}

// deliverMsg implements deliverySink for loopback sends: route the message
// into the rendezvous machinery at delivery time.
func (b *Backend) deliverMsg(msg Message) { b.deliver(msg) }

func (b *Backend) deliver(msg Message) {
	k := matchKey{src: msg.Src, dst: msg.Dst, tag: msg.Tag}
	if q := b.waiting[k]; q != nil {
		cb := q.items[q.head]
		q.items[q.head] = nil // release for the GC while pooled
		q.head++
		if q.head == len(q.items) {
			delete(b.waiting, k)
			b.putCBQueue(q)
		}
		cb(msg)
		return
	}
	q := b.arrived[k]
	if q == nil {
		q = b.getMsgQueue()
		b.arrived[k] = q
	}
	q.items = append(q.items, msg)
}

func (b *Backend) getMsgQueue() *msgQueue {
	if n := len(b.msgQueues); n > 0 {
		q := b.msgQueues[n-1]
		b.msgQueues = b.msgQueues[:n-1]
		return q
	}
	return &msgQueue{}
}

func (b *Backend) putMsgQueue(q *msgQueue) {
	q.items = q.items[:0]
	q.head = 0
	b.msgQueues = append(b.msgQueues, q)
}

func (b *Backend) getCBQueue() *cbQueue {
	if n := len(b.cbQueues); n > 0 {
		q := b.cbQueues[n-1]
		b.cbQueues = b.cbQueues[:n-1]
		return q
	}
	return &cbQueue{}
}

func (b *Backend) putCBQueue(q *cbQueue) {
	q.items = q.items[:0]
	q.head = 0
	b.cbQueues = append(b.cbQueues, q)
}

// EstimateP2P returns the unloaded (no-queueing) latency of a point-to-point
// message, the closed-form version of the paper's equation.
func (b *Backend) EstimateP2P(src, dst int, size units.ByteSize) units.Time {
	if src == dst {
		return 0
	}
	var t units.Time
	w := b.top.WalkPositions(src, dst)
	for dim, sp, ep, ok := w.Next(); ok; dim, sp, ep, ok = w.Next() {
		if sp == ep {
			continue
		}
		d := b.top.Dims[dim]
		hops := d.Hops(sp, ep)
		t += units.Time(hops)*d.Latency + d.TransferTime(size)
	}
	return t
}
