package network

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// linkOracle is the per-link model the block floors must reproduce: every
// NPU's dimension link keeps its own free time, and a phase reads and
// writes every member link.
type linkOracle struct {
	top           *topology.Topology
	link          [][]units.Time // [npu][dim]
	scale         []float64
	endpointBytes []units.ByteSize
	bytes         []units.ByteSize
}

func newLinkOracle(top *topology.Topology) *linkOracle {
	o := &linkOracle{
		top:           top,
		link:          make([][]units.Time, top.NumNPUs()),
		scale:         make([]float64, top.NumDims()),
		endpointBytes: make([]units.ByteSize, top.NumDims()),
		bytes:         make([]units.ByteSize, top.NumDims()),
	}
	for i := range o.link {
		o.link[i] = make([]units.Time, top.NumDims())
	}
	for d := range o.scale {
		o.scale[d] = 1
	}
	return o
}

func (o *linkOracle) dur(dim int, size units.ByteSize, factor float64) units.Time {
	dur := o.top.Dims[dim].TransferTime(size)
	if s := o.scale[dim]; s != 1 {
		dur = units.Time(float64(dur) / s)
	}
	if factor > 1 {
		dur = units.Time(float64(dur) * factor)
	}
	return dur
}

func (o *linkOracle) available(now units.Time, members []int, dim int) units.Time {
	t := now
	for _, m := range members {
		t = max(t, o.link[m][dim])
	}
	return t
}

func (o *linkOracle) phase(now units.Time, members []int, dim int, traffic units.ByteSize, factor float64) (units.Time, units.Time) {
	start := o.available(now, members, dim)
	end := start + o.dur(dim, traffic, factor)
	for _, m := range members {
		o.link[m][dim] = end
	}
	n := units.ByteSize(len(members))
	o.bytes[dim] += n * (traffic / 2)
	o.endpointBytes[dim] += n * traffic
	return start, end
}

// send charges a point-to-point message to its endpoint links, or to every
// link on its transit path, and returns (src egress end, arrival).
func (o *linkOracle) send(now units.Time, src, dst, dim int, size units.ByteSize, factor float64, transit bool) (units.Time, units.Time) {
	d := o.top.Dims[dim]
	sp, dp := o.top.DimPos(src, dim), o.top.DimPos(dst, dim)
	stride := o.top.DimStride(dim)
	nodes := []int{src, dst}
	if transit {
		if path := d.Kind.TransitPositions(sp, dp, d.Size); len(path) > 0 {
			nodes = nodes[:0]
			for _, pos := range path {
				nodes = append(nodes, src+(pos-sp)*stride)
			}
		}
	}
	dur := o.dur(dim, size, factor)
	var srcEnd, ready units.Time
	for i, m := range nodes {
		end := max(o.link[m][dim], now) + dur
		o.link[m][dim] = end
		if i == 0 {
			srcEnd = end
		}
		ready = max(ready, end)
	}
	o.bytes[dim] += size
	o.endpointBytes[dim] += 2 * size
	return srcEnd, ready + units.Time(d.Hops(sp, dp))*d.Latency
}

// stubFlows is a flow controller whose contention factors follow a fixed
// cycle, so the oracle can replay each factor the backend was given. It
// arbitrates only the dimensions skip leaves out, and counts the flows it
// is told about on the others in wrong.
type stubFlows struct {
	skip                   []bool
	calls, finished, wrong int
	last                   float64
}

func (f *stubFlows) Arbitrates(dim int) bool { return !f.skip[dim] }

func (f *stubFlows) FlowStarted(dim int) float64 {
	if f.skip[dim] {
		f.wrong++
	}
	f.calls++
	f.last = []float64{1, 1.5, 1, 2.25}[f.calls%4]
	return f.last
}

func (f *stubFlows) FlowFinished(dim int) {
	if f.skip[dim] {
		f.wrong++
	}
	f.finished++
}

// testLayout is a partition given as spans of (dim, K, stride).
type testLayout [][3]int

// offsets lists the ranks of the block whose origin is rank 0.
func (l testLayout) offsets(top *topology.Topology) []int {
	out := []int{0}
	for _, s := range l {
		step := top.DimStride(s[0]) * s[2]
		grown := make([]int, 0, len(out)*s[1])
		for i := 0; i < s[1]; i++ {
			for _, m := range out {
				grown = append(grown, m+i*step)
			}
		}
		out = grown
	}
	sort.Ints(out)
	return out
}

// origin is the lowest member of rank's block.
func (l testLayout) origin(top *topology.Topology, rank int) int {
	o := rank
	for _, s := range l {
		pos := top.DimPos(o, s[0])
		o -= (pos / s[2] % s[1]) * s[2] * top.DimStride(s[0])
	}
	return o
}

// dropBlockFloors is settle without the write-back: the mutation the
// differential test must catch.
func dropBlockFloors(b *Backend, dim int) {
	bf := &b.blocks[dim]
	for _, block := range bf.touched {
		bf.floor[block] = -1
	}
	bf.touched = bf.touched[:0]
	bf.part = -1
}

// blockFloorInterleaving drives one seeded random mix of reservations
// through a backend and the per-link oracle and returns the first
// disagreement, or "" when every answer matches. With mutant set, block
// floors are dropped instead of settled.
func blockFloorInterleaving(seed int64, mutant bool) string {
	rng := rand.New(rand.NewSource(seed))
	kinds := []topology.DimModel{topology.Ring, topology.FullyConnected, topology.Switch}
	sizes := [][]int{{4, 8}, {4, 8}, {4}}
	dims := make([]topology.Dim, 3)
	for d := range dims {
		dims[d] = topology.Dim{
			Kind:      kinds[d],
			Size:      sizes[d][rng.Intn(len(sizes[d]))],
			Bandwidth: units.GBps(float64(50 + 50*rng.Intn(4))),
			Latency:   units.Time(100 * (d + 1)),
		}
	}
	top := topology.MustNew(dims...)
	eng := timeline.New()
	b := NewBackend(eng, top)
	o := newLinkOracle(top)
	transit := rng.Intn(2) == 0
	b.SetTransitCharging(transit)
	var fc *stubFlows
	if rng.Intn(2) == 0 {
		fc = &stubFlows{skip: make([]bool, len(dims))}
		for d := range fc.skip {
			fc.skip[d] = rng.Intn(2) == 0
		}
		b.SetFlowController(fc)
	}
	// skipped counts the flows on unarbitrated dimensions: each must count
	// in Fired without executing a flow-finish event.
	skipped := uint64(0)
	factor := func(dim int) float64 {
		if fc == nil {
			return 1
		}
		if fc.skip[dim] {
			skipped++
			return 1
		}
		return fc.last
	}
	// Two partitions share dim 1; the third is strided on dim 2.
	layouts := []testLayout{
		{{0, dims[0].Size, 1}, {1, dims[1].Size, 1}},
		{{1, 2, dims[1].Size / 2}},
		{{2, 2, 1}},
	}
	parts := make([]int, len(layouts))
	for i, l := range layouts {
		parts[i] = b.Partition(l.offsets(top))
	}
	if b.Partition(layouts[1].offsets(top)) != parts[1] {
		return "equal layout interned twice"
	}
	owner := make([]int, top.NumDims()) // oracle-side owner, for the mutant
	for d := range owner {
		owner[d] = Whole
	}
	mutate := func(dim, part int) {
		if mutant && owner[dim] != part {
			dropBlockFloors(b, dim)
		}
		owner[dim] = part
	}
	members := func(li, block int) []int {
		out := append([]int(nil), layouts[li].offsets(top)...)
		for i := range out {
			out[i] += block
		}
		return out
	}
	all := make([]int, top.NumNPUs())
	for i := range all {
		all[i] = i
	}
	var fail string
	check := func(what string, got, want units.Time) {
		if got != want && fail == "" {
			fail = fmt.Sprintf("%s at t=%v: got %v, want %v", what, eng.Now(), got, want)
		}
	}
	traffic := func() units.ByteSize { return units.ByteSize(1+rng.Intn(64)) * units.KB }

	for step := 0; step < 400 && fail == ""; step++ {
		now := eng.Now()
		dim := rng.Intn(top.NumDims())
		switch op := rng.Intn(20); {
		case op < 8: // sub-group phase
			li := rng.Intn(len(layouts))
			block := layouts[li].origin(top, rng.Intn(top.NumNPUs()))
			mutate(dim, parts[li])
			tr := traffic()
			s, e := b.ReservePhase(parts[li], block, dim, tr)
			ws, we := o.phase(now, members(li, block), dim, tr, factor(dim))
			check(fmt.Sprintf("step %d layout %d block %d dim %d start", step, li, block, dim), s, ws)
			check(fmt.Sprintf("step %d layout %d block %d dim %d end", step, li, block, dim), e, we)
		case op < 10: // whole-machine phase
			tr := traffic()
			s, e := b.ReservePhase(Whole, 0, dim, tr)
			ws, we := o.phase(now, all, dim, tr, factor(dim))
			check(fmt.Sprintf("step %d whole dim %d start", step, dim), s, ws)
			check(fmt.Sprintf("step %d whole dim %d end", step, dim), e, we)
		case op < 13: // point-to-point send
			src := rng.Intn(top.NumNPUs())
			pos := top.DimPos(src, dim)
			to := (pos + 1 + rng.Intn(dims[dim].Size-1)) % dims[dim].Size
			dst := src + (to-pos)*top.DimStride(dim)
			mutate(dim, Whole)
			size := traffic()
			var sentAt, arrivedAt units.Time
			b.SendOnDim(src, dst, dim, size, step,
				func() { sentAt = eng.Now() },
				func(Message) { arrivedAt = eng.Now() })
			wantSent, wantArrive := o.send(now, src, dst, dim, size, factor(dim), transit)
			if _, err := eng.Run(); err != nil {
				return err.Error()
			}
			check(fmt.Sprintf("step %d send %d->%d dim %d sent", step, src, dst, dim), sentAt, wantSent)
			check(fmt.Sprintf("step %d send %d->%d dim %d arrival", step, src, dst, dim), arrivedAt, wantArrive)
		case op < 14: // NPU stall
			npu := rng.Intn(top.NumNPUs())
			until := now + units.Time(rng.Intn(20000))
			for d := range owner {
				mutate(d, Whole)
			}
			b.StallNPULinks(npu, until)
			for d := range o.link[npu] {
				o.link[npu][d] = max(o.link[npu][d], until)
			}
		case op < 15: // bandwidth degradation or restoration
			s := []float64{1, 0.5, 0.25}[rng.Intn(3)]
			b.SetDimBandwidthScale(dim, s)
			o.scale[dim] = s
		case op < 18: // Themis-style availability query
			li := rng.Intn(len(layouts) + 1)
			if li == len(layouts) {
				check(fmt.Sprintf("step %d whole availability dim %d", step, dim),
					b.PhaseAvailability(Whole, 0, dim), o.available(now, all, dim))
				break
			}
			block := layouts[li].origin(top, rng.Intn(top.NumNPUs()))
			check(fmt.Sprintf("step %d layout %d block %d availability dim %d", step, li, block, dim),
				b.PhaseAvailability(parts[li], block, dim), o.available(now, members(li, block), dim))
		default: // let time pass
			at := now + units.Time(rng.Intn(50000))
			eng.ScheduleAt(at, func() {})
			if _, err := eng.RunUntil(at); err != nil {
				return err.Error()
			}
		}
	}
	if _, err := eng.Run(); err != nil {
		return err.Error()
	}
	if fail != "" {
		return fail
	}
	s := b.Stats()
	for d := range o.bytes {
		if s.BytesPerDim[d] != o.bytes[d] || s.EndpointBytesPerDim[d] != o.endpointBytes[d] {
			return fmt.Sprintf("dim %d traffic: got %v/%v, want %v/%v", d,
				s.BytesPerDim[d], s.EndpointBytesPerDim[d], o.bytes[d], o.endpointBytes[d])
		}
	}
	if fc != nil && fc.finished != fc.calls {
		return fmt.Sprintf("flow controller: %d flows started, %d finished", fc.calls, fc.finished)
	}
	if fc != nil && fc.wrong > 0 {
		return fmt.Sprintf("flow controller: told of %d flow starts or ends on unarbitrated dimensions", fc.wrong)
	}
	if got := eng.Fired() - eng.Executed(); got != skipped {
		return fmt.Sprintf("engine represents %d events, want one per flow on an unarbitrated dimension (%d)", got, skipped)
	}
	return ""
}

// TestBlockFloorsMatchPerLinkModel checks the three-level link occupancy
// (dimension floor, block floor, per-link overlay) against the per-link
// oracle over seeded random interleavings of sub-group and whole-machine
// phases, point-to-point sends with and without transit charging, NPU
// stalls, bandwidth changes, a flow controller arbitrating some of the
// dimensions and availability queries on 64-256 NPUs. Dropping block floors instead of settling them must be
// caught, or the interleavings are too weak to guard settle.
func TestBlockFloorsMatchPerLinkModel(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	caught := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if diff := blockFloorInterleaving(seed, false); diff != "" {
			t.Fatalf("seed %d: %s", seed, diff)
		}
		if blockFloorInterleaving(seed, true) != "" {
			caught++
		}
	}
	if caught == 0 {
		t.Error("no interleaving distinguishes dropped block floors from settled ones")
	}
	t.Logf("a skipped settle is caught by %d of %d interleavings", caught, seeds)
}
