package core

import (
	"bytes"
	"testing"

	"repro/internal/collective"
	"repro/internal/et"
	"repro/internal/topology"
	"repro/internal/units"
)

// fuzzShapes are the machines FuzzSymmetricCollapse draws from, 8 to 64
// NPUs, each with at least one dimension wide enough for two distinct
// strided span layouts.
var fuzzShapes = []struct {
	spec string
	gbps []float64
}{
	{"R(8)", []float64{300}},
	{"R(16)", []float64{350}},
	{"R(4)_SW(4)", []float64{200, 50}},
	{"FC(4)_R(4)_SW(4)", []float64{250, 200, 50}},
	{"T2D(2,4)_SW(4)", []float64{200, 50}},
	{"SW(8,2)_FC(4)", []float64{200, 100}},
	{"M(4)_SW(16)", []float64{300, 50}},
}

// FuzzSymmetricCollapse builds a random single-template DAG of compute,
// memory and collective nodes — collectives on the whole machine or on
// random strided span layouts, several of them sharing a physical
// dimension — on a machine with no memory pool or a pool of any design,
// which serves the remote loads and stores and, where it is switch-based,
// fuses the in-switch collectives. It requires the collapsed run to match
// the full run byte for byte while executing no more events. Ties make many of these runs
// re-simulate in full, so the target mostly checks that every collapsed
// run the divergence checks let through is exact.
func FuzzSymmetricCollapse(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(12), false)
	f.Add(uint64(2), uint8(1), uint8(20), true)
	f.Add(uint64(3), uint8(3), uint8(16), false)
	f.Add(uint64(4), uint8(4), uint8(24), true)
	f.Add(uint64(5), uint8(6), uint8(8), true)
	f.Fuzz(func(t *testing.T, seed uint64, shape, size uint8, themis bool) {
		m := fuzzShapes[int(shape)%len(fuzzShapes)]
		top, err := topology.ParseWithBandwidth(m.spec, m.gbps, 500*units.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			return int((r >> 33) % uint64(n))
		}
		layouts := fuzzLayouts(top, next)
		nodes := make([]*et.Node, 1+int(size)%32)
		for i := range nodes {
			n := &et.Node{ID: i + 1}
			for d := next(3); d > 0 && i > 0; d-- {
				n.Deps = append(n.Deps, 1+next(i))
			}
			switch next(3) {
			case 0:
				n.Kind, n.FLOPs, n.MemBytes = et.KindCompute, float64(1+next(100))*1e9, int64(next(64))<<20
			case 1:
				n.Kind, n.TensorBytes = et.KindMemory, int64(1+next(64))<<20
				n.MemOp, n.MemLocation = et.MemLoad, et.MemLocal
				if next(2) == 0 {
					n.MemOp = et.MemStore
				}
				if next(2) == 0 {
					n.MemLocation = et.MemRemote
				}
			default:
				colls := []et.CollectiveType{et.CollAllReduce, et.CollAllGather, et.CollReduceScatter, et.CollAllToAll}
				n.Kind, n.Collective = et.KindComm, colls[next(len(colls))]
				n.CommBytes, n.InSwitch = int64(1+next(64))<<20, next(4) == 0
				if l := next(len(layouts) + 1); l < len(layouts) {
					n.Group = &et.GroupRef{Spans: layouts[l]}
				}
			}
			nodes[i] = n
		}
		trace := &et.Trace{Name: "fuzz", NumNPUs: top.NumNPUs()}
		for rank := 0; rank < top.NumNPUs(); rank++ {
			trace.Graphs = append(trace.Graphs, &et.Graph{NPU: rank, Nodes: nodes})
		}
		cfg := testConfig(t, top)
		cfg.Chunks = []int{1, 4, 16}[next(3)]
		if themis {
			cfg.Policy = collective.Themis
		}
		if d := next(len(poolDesigns) + 1); d < len(poolDesigns) {
			cfg = withPool(cfg, testPool(poolDesigns[d]))
		}
		got, want, ranGot, ranWant, how := bothPaths(t, cfg, trace)
		if how == ranFull {
			t.Fatal("a single-template collective trace did not collapse")
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("collapsed run differs from the full run:\n%s\n%s", got, want)
		}
		if ranGot > ranWant {
			t.Errorf("collapsed run executed %d events, full run %d", ranGot, ranWant)
		}
	})
}

// fuzzLayouts draws two to four communicator span layouts over distinct
// physical dimensions each. The first two share the widest dimension with
// different strides wherever it is wide enough.
func fuzzLayouts(top *topology.Topology, next func(int) int) [][]et.SpanRef {
	// spans lists every valid (K, stride) span of a physical dimension.
	spans := func(phys int) []et.SpanRef {
		size := top.Dims[phys].Size
		var out []et.SpanRef
		for k := 2; k <= size; k++ {
			for stride := 1; k*stride <= size; stride++ {
				if size%(k*stride) == 0 {
					out = append(out, et.SpanRef{Phys: phys, K: k, Stride: stride})
				}
			}
		}
		return out
	}
	wide := 0
	for d, dim := range top.Dims {
		if dim.Size > top.Dims[wide].Size {
			wide = d
		}
	}
	var layouts [][]et.SpanRef
	if opts := spans(wide); len(opts) > 1 {
		a := next(len(opts))
		b := (a + 1 + next(len(opts)-1)) % len(opts)
		layouts = append(layouts, []et.SpanRef{opts[a]}, []et.SpanRef{opts[b]})
	}
	for len(layouts) < 2+next(3) {
		var layout []et.SpanRef
		for d := range top.Dims {
			if opts := spans(d); next(2) == 0 && len(opts) > 0 {
				layout = append(layout, opts[next(len(opts))])
			}
		}
		if len(layout) == 0 {
			layout = append(layout, spans(wide)[0])
		}
		layouts = append(layouts, layout)
	}
	return layouts
}
