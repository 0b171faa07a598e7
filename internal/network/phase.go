package network

import (
	"slices"

	"repro/internal/units"
)

// Whole is the partition id of the whole-machine layout: a single block
// whose phases advance the dimension floor. It needs no registration.
const Whole = -1

// partition is a registered communicator layout: congruent blocks that
// tile the machine, each named by its origin (lowest member rank).
type partition struct {
	offsets []int // member ranks of the block whose origin is rank 0
	blockOf []int // rank -> origin of the rank's block
}

// blockFloors is one dimension's block level. The partition that owns the
// dimension keeps one free time per block; a block's floor is computed
// from its members' links the first time it is touched, and written back
// into them (settled) only when something else touches the dimension: a
// different partition, a point-to-point send or an NPU stall.
type blockFloors struct {
	part    int          // owning partition, -1 when none
	floor   []units.Time // by block origin; -1 until computed for this owner
	touched []int        // origins whose floor is computed
}

// Partition registers a communicator layout that tiles the machine with
// congruent blocks, given as the ascending member ranks of the block whose
// origin is rank 0 (the backend keeps the slice), and returns its id.
// Layouts are interned by content, so an equal layout gets the same id.
func (b *Backend) Partition(offsets []int) int {
	for i, p := range b.parts {
		if slices.Equal(p.offsets, offsets) {
			return i
		}
	}
	p := partition{offsets: offsets, blockOf: make([]int, b.npus)}
	for r := range p.blockOf {
		p.blockOf[r] = -1
	}
	for r := range p.blockOf {
		if p.blockOf[r] < 0 {
			for _, off := range offsets {
				p.blockOf[r+off] = r
			}
		}
	}
	b.parts = append(b.parts, p)
	return len(b.parts) - 1
}

// linkAt is one NPU's dim link free time above the dimension floor.
func (b *Backend) linkAt(npu, dim int) units.Time {
	var t units.Time
	if b.linkFree != nil {
		t = b.linkFree[b.linkIdx(npu, dim)]
	}
	if bf := &b.blocks[dim]; bf.part >= 0 {
		t = max(t, bf.floor[b.parts[bf.part].blockOf[npu]])
	}
	return t
}

// blockMax is the latest link free time among one block's members on dim.
func (b *Backend) blockMax(part, block, dim int) units.Time {
	var t units.Time
	for _, off := range b.parts[part].offsets {
		t = max(t, b.linkAt(block+off, dim))
	}
	return t
}

// blockFloor makes part the owner of dim, settling the previous owner, and
// returns block's floor slot.
func (b *Backend) blockFloor(part, block, dim int) *units.Time {
	bf := &b.blocks[dim]
	if bf.part != part {
		b.settle(dim)
		bf.part = part
	}
	if bf.floor == nil {
		bf.floor = make([]units.Time, b.npus)
		for i := range bf.floor {
			bf.floor[i] = -1
		}
	}
	if bf.floor[block] < 0 {
		bf.floor[block] = b.blockMax(part, block, dim)
		bf.touched = append(bf.touched, block)
	}
	return &bf.floor[block]
}

// settle writes dim's block floors back into their members' links and
// releases the dimension from its owning partition.
func (b *Backend) settle(dim int) {
	bf := &b.blocks[dim]
	if bf.part < 0 {
		return
	}
	b.ensureLinks()
	for _, block := range bf.touched {
		for _, off := range b.parts[bf.part].offsets {
			b.linkFree[b.linkIdx(block+off, dim)] = bf.floor[block]
		}
		bf.floor[block] = -1
	}
	bf.touched = bf.touched[:0]
	bf.part = -1
}

// PhaseAvailability returns the earliest time a bulk-synchronous phase over
// one block of a partition (or the Whole machine) could begin on dim: the
// latest of "now" and every member's link free time, since collective
// phases are gated by their slowest member. It never settles.
func (b *Backend) PhaseAvailability(part, block, dim int) units.Time {
	busy := b.dimMaxLink[dim]
	if part != Whole {
		busy = b.blockMax(part, block, dim)
	}
	return max(b.eng.Now(), b.dimFloor[dim], busy)
}

// ReservePhase reserves the dim link of every member of one block of a
// partition (or of the Whole machine) in O(1) for the serialization of
// perNPUTraffic bytes, the member's sent+received traffic for the phase,
// and returns the phase's start and serialization-end times. A Whole phase
// advances the dimension floor, a block phase its block floor. Half the
// traffic counts as sent and half as received, matching the paper's
// per-dimension message-size accounting. With a flow controller attached,
// the phase is one flow on the dimension: where the controller arbitrates
// it, its serialization is stretched by the contention factor and its end
// is reported through a typed event.
func (b *Backend) ReservePhase(part, block, dim int, perNPUTraffic units.ByteSize) (start, end units.Time) {
	factor, arbitrated := b.flowStarted(dim)
	dur := b.transferTime(dim, perNPUTraffic, factor)
	slot, busy, n := &b.dimFloor[dim], b.dimMaxLink[dim], b.npus
	if part != Whole {
		slot = b.blockFloor(part, block, dim)
		busy, n = *slot, len(b.parts[part].offsets)
	}
	start = max(b.eng.Now(), b.dimFloor[dim], busy)
	end = start + dur
	*slot = end
	b.dimMaxLink[dim] = max(b.dimMaxLink[dim], end)
	if arbitrated {
		b.eng.ScheduleActorAt(end, b.getFlowDone(dim))
	}
	b.stats.BytesPerDim[dim] += units.ByteSize(n) * (perNPUTraffic / 2)
	b.stats.EndpointBytesPerDim[dim] += units.ByteSize(n) * perNPUTraffic
	return start, end
}
