package et

import (
	"testing"
)

func twoNPUTrace() *Trace {
	return &Trace{
		Name:    "iter",
		NumNPUs: 2,
		Graphs: []*Graph{
			{NPU: 0, Nodes: []*Node{
				{ID: 1, Kind: KindCompute, FLOPs: 1e9},
				{ID: 2, Kind: KindSend, Deps: []int{1}, Peer: 1, Tag: 3, CommBytes: 64},
			}},
			{NPU: 1, Nodes: []*Node{
				{ID: 1, Kind: KindRecv, Peer: 0, Tag: 3, CommBytes: 64},
				{ID: 2, Kind: KindCompute, Deps: []int{1}, FLOPs: 1e9},
			}},
		},
	}
}

func TestRepeatValidatesAndScales(t *testing.T) {
	tr := twoNPUTrace()
	out, err := Repeat(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.NodeCount() != 3*tr.NodeCount() {
		t.Errorf("NodeCount = %d, want %d", out.NodeCount(), 3*tr.NodeCount())
	}
	if out.Name != "iterx3" {
		t.Errorf("Name = %q", out.Name)
	}
}

func TestRepeatChainsIterations(t *testing.T) {
	out, err := Repeat(twoNPUTrace(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// NPU 0's second-iteration entry (clone of node 1) must depend on the
	// first iteration's exit (node 2).
	g := out.Graphs[0]
	second := g.Nodes[2] // iteration 1's first node
	if len(second.Deps) != 1 || second.Deps[0] != 2 {
		t.Errorf("iteration boundary deps = %v, want [2]", second.Deps)
	}
}

func TestRepeatRemapsTags(t *testing.T) {
	out, err := Repeat(twoNPUTrace(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var tags []int
	for _, n := range out.Graphs[0].Nodes {
		if n.Kind == KindSend {
			tags = append(tags, n.Tag)
		}
	}
	if len(tags) != 2 || tags[0] == tags[1] {
		t.Errorf("send tags = %v, want two distinct", tags)
	}
}

func TestRepeatEdgeCases(t *testing.T) {
	if _, err := Repeat(twoNPUTrace(), 0); err == nil {
		t.Error("n=0 accepted")
	}
	tr := twoNPUTrace()
	same, err := Repeat(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same != tr {
		t.Error("n=1 should return the input unchanged")
	}
	bad := twoNPUTrace()
	bad.Graphs[0].Nodes[1].Peer = 9
	if _, err := Repeat(bad, 2); err == nil {
		t.Error("invalid input accepted")
	}
}

// TestRepeatSharesNodeLists: graphs that share a node list share its
// repeated clone, so a symmetric trace stays symmetric; graphs with their
// own lists keep their own.
func TestRepeatSharesNodeLists(t *testing.T) {
	shared := []*Node{
		{ID: 1, Kind: KindCompute, FLOPs: 1e9},
		{ID: 2, Kind: KindComm, Collective: CollAllReduce, CommBytes: 1 << 20, Deps: []int{1}},
	}
	own := []*Node{{ID: 1, Kind: KindCompute, FLOPs: 2e9}}
	tr := &Trace{Name: "spmd", NumNPUs: 4}
	for r := 0; r < 4; r++ {
		nodes := shared
		if r == 2 {
			nodes = own
		}
		tr.Graphs = append(tr.Graphs, &Graph{NPU: r, Nodes: nodes})
	}
	out, err := Repeat(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := &out.Graphs[0].Nodes[0]
	for _, r := range []int{1, 3} {
		if &out.Graphs[r].Nodes[0] != first || len(out.Graphs[r].Nodes) != 6 {
			t.Errorf("graph %d does not share rank 0's repeated node list", r)
		}
	}
	if &out.Graphs[2].Nodes[0] == first || len(out.Graphs[2].Nodes) != 3 {
		t.Errorf("graph 2 lost its own node list")
	}
}
