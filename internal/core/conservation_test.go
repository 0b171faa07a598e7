package core

import (
	"math/rand"
	"testing"

	"repro/internal/collective"
	"repro/internal/et"
	"repro/internal/topology"
	"repro/internal/units"
)

// TestTrafficConservation checks byte conservation per dimension over
// random small traces that mix whole-machine collectives, sub-group
// collectives and point-to-point sends on 16-64 NPUs: the bytes charged to
// NPU links of dimension d equal the sum over collectives of
// Result.TrafficPerDim[d] × group size plus twice the point-to-point bytes
// routed over d (each message is charged at both endpoints). Sent bytes
// equal received bytes, so the per-NPU mean RunStats.TrafficPerDim[d] is
// that total over N.
func TestTrafficConservation(t *testing.T) {
	ops := []et.CollectiveType{et.CollAllReduce, et.CollAllGather, et.CollReduceScatter, et.CollAllToAll}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		top := topology.MustNew(
			topology.Dim{Kind: topology.Ring, Size: 2 << rng.Intn(2), Bandwidth: units.GBps(200), Latency: 100},
			topology.Dim{Kind: topology.FullyConnected, Size: 2 << rng.Intn(2), Bandwidth: units.GBps(100), Latency: 500},
			topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50), Latency: 1000},
		)
		n := top.NumNPUs()
		// Candidate layouts: the whole machine (nil), dimension-aligned
		// sub-groups and strided sub-groups.
		layouts := [][]et.SpanRef{
			nil,
			{{Phys: 0, K: top.Dims[0].Size, Stride: 1}},
			{{Phys: 0, K: top.Dims[0].Size, Stride: 1}, {Phys: 1, K: top.Dims[1].Size, Stride: 1}},
			{{Phys: 2, K: 2, Stride: 2}},
			{{Phys: 1, K: 2, Stride: top.Dims[1].Size / 2}, {Phys: 2, K: 2, Stride: 1}},
		}
		groupSize := map[units.ByteSize]int{} // by unique collective size
		wantCollectives := 0
		want := make([]units.ByteSize, top.NumDims())
		nodes := make([][]*et.Node, n)
		add := func(r int, node *et.Node) {
			node.ID = len(nodes[r]) + 1
			if node.ID > 1 {
				node.Deps = []int{node.ID - 1}
			}
			nodes[r] = append(nodes[r], node)
		}
		steps := 3 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			if rng.Intn(3) == 0 {
				shift := 1 + rng.Intn(n-1)
				size := int64(1+rng.Intn(256)) * int64(units.KB)
				for r := 0; r < n; r++ {
					dst := (r + shift) % n
					add(r, &et.Node{Kind: et.KindSend, Peer: dst, Tag: step, CommBytes: size})
					add(r, &et.Node{Kind: et.KindRecv, Peer: (r - shift + n) % n, Tag: step, CommBytes: size})
					w := top.WalkPositions(r, dst)
					for d, sp, dp, ok := w.Next(); ok; d, sp, dp, ok = w.Next() {
						if sp != dp {
							want[d] += 2 * units.ByteSize(size)
						}
					}
				}
				continue
			}
			spans := layouts[rng.Intn(len(layouts))]
			size := int64(64+rng.Intn(1024))*int64(units.KB) + int64(step)
			g := n
			var ref *et.GroupRef
			if spans != nil {
				ref = &et.GroupRef{Spans: spans}
				g = 1
				for _, sp := range spans {
					g *= sp.K
				}
			}
			groupSize[units.ByteSize(size)] = g
			wantCollectives += n / g
			op := ops[rng.Intn(len(ops))]
			for r := 0; r < n; r++ {
				add(r, &et.Node{Kind: et.KindComm, Collective: op, CommBytes: size, Group: ref})
			}
		}
		tr := &et.Trace{Name: "conservation", NumNPUs: n}
		for r := range nodes {
			tr.Graphs = append(tr.Graphs, &et.Graph{NPU: r, Nodes: nodes[r]})
		}

		cfg := testConfig(t, top)
		cfg.CollectiveLogLimit = 1 << 20
		cfg.ModelTransitCongestion = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			cfg.Policy = collective.Themis
		}
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run(tr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(stats.Collectives) != wantCollectives {
			t.Fatalf("seed %d: %d collectives logged, want %d", seed, len(stats.Collectives), wantCollectives)
		}
		for _, res := range stats.Collectives {
			for d, b := range res.TrafficPerDim {
				want[d] += b * units.ByteSize(groupSize[res.Size])
			}
		}
		total := sim.net.Stats().EndpointBytesPerDim
		for d := range want {
			if total[d] != want[d] {
				t.Errorf("seed %d dim %d: %v charged to links, want %v", seed, d, total[d], want[d])
			}
			if mean := want[d] / units.ByteSize(n); stats.TrafficPerDim[d] != mean {
				t.Errorf("seed %d dim %d: TrafficPerDim %v, want %v", seed, d, stats.TrafficPerDim[d], mean)
			}
		}
	}
}
