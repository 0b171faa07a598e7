package network

import (
	"repro/internal/units"
)

// PhaseAvailability returns the earliest time a bulk-synchronous phase over
// the given members' dim links could begin: the latest of "now" and every
// member's link-free time. Collective phases are gated by their slowest
// member, mirroring synchronous training semantics. When the members are
// the whole machine the answer comes from the dimension aggregates in O(1).
func (b *Backend) PhaseAvailability(members []int, dim int) units.Time {
	t := b.eng.Now()
	if f := b.dimFloor[dim]; f > t {
		t = f
	}
	if b.linkFree == nil {
		return t // no per-link backlog anywhere: the floor is exact
	}
	if len(members) == b.npus {
		if m := b.dimMaxLink[dim]; m > t {
			t = m
		}
		return t
	}
	for _, m := range members {
		if f := b.linkFree[b.linkIdx(m, dim)]; f > t {
			t = f
		}
	}
	return t
}

// PhaseAvailabilityAll is PhaseAvailability for a whole-machine phase,
// without needing a member list. Always O(1).
func (b *Backend) PhaseAvailabilityAll(dim int) units.Time {
	t := b.eng.Now()
	if f := b.dimFloor[dim]; f > t {
		t = f
	}
	if m := b.dimMaxLink[dim]; m > t {
		t = m
	}
	return t
}

// ReservePhase reserves every member's dimension link for the serialization
// of perNPUTraffic bytes (the member's sent+received byte count for the
// phase — both directions serialize on the shared per-dimension link). It
// returns the phase's start and serialization-end times. Traffic statistics
// attribute half the per-NPU traffic to sends and half to receives, so the
// sum matches the paper's per-dimension message-size accounting.
//
// With a flow controller attached, the phase is one flow on the dimension:
// its serialization is stretched by the cross-job contention factor at
// reservation time and its end is reported back through a typed event.
//
// A whole-machine phase (len(members) == NumNPUs) takes the O(1) aggregate
// path: it advances the dimension floor instead of touching per-link state.
func (b *Backend) ReservePhase(members []int, dim int, perNPUTraffic units.ByteSize) (start, end units.Time) {
	if len(members) == b.npus {
		return b.ReservePhaseAll(dim, perNPUTraffic)
	}
	d := b.top.Dims[dim]
	dur := b.scaleDur(dim, d.TransferTime(perNPUTraffic))
	if b.fc != nil {
		if factor := b.fc.FlowStarted(dim); factor > 1 {
			dur = units.Time(float64(dur) * factor)
		}
	}
	start = b.PhaseAvailability(members, dim)
	end = start + dur
	if b.fc != nil {
		b.eng.ScheduleActorAt(end, b.getFlowDone(dim))
	}
	b.ensureLinks()
	b.ensureStatsMatrices()
	half := perNPUTraffic / 2
	for _, m := range members {
		b.linkFree[b.linkIdx(m, dim)] = end
		b.stats.SentPerNPUDim[m][dim] += half
		b.stats.RecvPerNPUDim[m][dim] += perNPUTraffic - half
	}
	if end > b.dimMaxLink[dim] {
		b.dimMaxLink[dim] = end
	}
	b.stats.BytesPerDim[dim] += units.ByteSize(len(members)) * half
	return start, end
}

// ReservePhaseAll reserves every NPU's dimension link for a whole-machine
// phase in O(1): the phase start is the dimension's aggregate availability,
// its end becomes the new dimension floor, and the uniform per-NPU traffic
// lands in the deferred phase accumulators that Stats() materializes. The
// result is byte-identical to ReservePhase over the full member list.
func (b *Backend) ReservePhaseAll(dim int, perNPUTraffic units.ByteSize) (start, end units.Time) {
	d := b.top.Dims[dim]
	dur := b.scaleDur(dim, d.TransferTime(perNPUTraffic))
	if b.fc != nil {
		if factor := b.fc.FlowStarted(dim); factor > 1 {
			dur = units.Time(float64(dur) * factor)
		}
	}
	start = b.PhaseAvailabilityAll(dim)
	end = start + dur
	if b.fc != nil {
		b.eng.ScheduleActorAt(end, b.getFlowDone(dim))
	}
	b.dimFloor[dim] = end
	half := perNPUTraffic / 2
	b.phaseSent[dim] += half
	b.phaseRecv[dim] += perNPUTraffic - half
	b.stats.BytesPerDim[dim] += units.ByteSize(b.npus) * half
	return start, end
}
