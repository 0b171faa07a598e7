package et

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func validTrace() *Trace {
	return &Trace{
		Name:    "test",
		NumNPUs: 2,
		Graphs: []*Graph{
			{NPU: 0, Nodes: []*Node{
				{ID: 1, Kind: KindCompute, FLOPs: 1e9, MemBytes: 1 << 20},
				{ID: 2, Kind: KindComm, Deps: []int{1}, Collective: CollAllReduce, CommBytes: 1 << 20},
				{ID: 3, Kind: KindSend, Deps: []int{2}, Peer: 1, Tag: 7, CommBytes: 4096},
			}},
			{NPU: 1, Nodes: []*Node{
				{ID: 1, Kind: KindCompute, FLOPs: 1e9},
				{ID: 2, Kind: KindComm, Deps: []int{1}, Collective: CollAllReduce, CommBytes: 1 << 20},
				{ID: 3, Kind: KindRecv, Deps: []int{2}, Peer: 0, Tag: 7, CommBytes: 4096},
			}},
		},
	}
}

func TestValidTraceValidates(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.NumNPUs != tr.NumNPUs || got.NodeCount() != tr.NodeCount() {
		t.Errorf("round trip lost data: %+v", got)
	}
	if got.Graphs[0].Nodes[1].Collective != CollAllReduce {
		t.Error("collective type lost")
	}
}

func TestDuplicateNodeID(t *testing.T) {
	tr := validTrace()
	tr.Graphs[0].Nodes[1].ID = 1
	if err := tr.Validate(); err == nil {
		t.Error("duplicate node id accepted")
	}
}

func TestUnknownDep(t *testing.T) {
	tr := validTrace()
	tr.Graphs[0].Nodes[1].Deps = []int{99}
	if err := tr.Validate(); err == nil {
		t.Error("unknown dep accepted")
	}
}

func TestSelfDep(t *testing.T) {
	tr := validTrace()
	tr.Graphs[0].Nodes[0].Deps = []int{1}
	if err := tr.Validate(); err == nil {
		t.Error("self dependency accepted")
	}
}

func TestCycleDetected(t *testing.T) {
	g := &Graph{NPU: 0, Nodes: []*Node{
		{ID: 1, Kind: KindCompute, Deps: []int{2}},
		{ID: 2, Kind: KindCompute, Deps: []int{1}},
	}}
	if err := g.Validate(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestLongChainNoCycle(t *testing.T) {
	nodes := make([]*Node, 1000)
	for i := range nodes {
		n := &Node{ID: i + 1, Kind: KindCompute, FLOPs: 1}
		if i > 0 {
			n.Deps = []int{i}
		}
		nodes[i] = n
	}
	g := &Graph{NPU: 0, Nodes: nodes}
	if err := g.Validate(); err != nil {
		t.Errorf("chain rejected: %v", err)
	}
}

func TestKindMetadataValidation(t *testing.T) {
	cases := []struct {
		name string
		node *Node
	}{
		{"negative flops", &Node{ID: 1, Kind: KindCompute, FLOPs: -1}},
		{"mem without op", &Node{ID: 1, Kind: KindMemory, TensorBytes: 10, MemLocation: MemLocal}},
		{"mem without location", &Node{ID: 1, Kind: KindMemory, TensorBytes: 10, MemOp: MemLoad}},
		{"mem zero size", &Node{ID: 1, Kind: KindMemory, MemOp: MemLoad, MemLocation: MemLocal}},
		{"coll unknown type", &Node{ID: 1, Kind: KindComm, CommBytes: 10, Collective: "BROADCAST"}},
		{"coll zero size", &Node{ID: 1, Kind: KindComm, Collective: CollAllToAll}},
		{"send zero size", &Node{ID: 1, Kind: KindSend, Peer: 1}},
		{"recv bad peer", &Node{ID: 1, Kind: KindRecv, Peer: -1, CommBytes: 8}},
		{"bogus kind", &Node{ID: 1, Kind: "NOP"}},
	}
	for _, c := range cases {
		g := &Graph{NPU: 0, Nodes: []*Node{c.node}}
		if err := g.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestTraceShapeErrors(t *testing.T) {
	tr := validTrace()
	tr.NumNPUs = 3
	if err := tr.Validate(); err == nil {
		t.Error("graph-count mismatch accepted")
	}
	tr = validTrace()
	tr.Graphs[1].NPU = 0
	if err := tr.Validate(); err == nil {
		t.Error("duplicate npu accepted")
	}
	tr = validTrace()
	tr.Graphs[1].NPU = 9
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range npu accepted")
	}
	if err := (&Trace{NumNPUs: 0}).Validate(); err == nil {
		t.Error("zero NPUs accepted")
	}
}

// A node list shared by several graphs is validated once, and its error
// names the first NPU whose graph uses it.
func TestSharedListValidatedOnce(t *testing.T) {
	own := []*Node{{ID: 1, Kind: KindCompute, FLOPs: 1}}
	shared := []*Node{
		{ID: 1, Kind: KindCompute, FLOPs: 1},
		{ID: 2, Kind: KindMemory, Deps: []int{1}, MemOp: MemLoad, MemLocation: MemLocal}, // no tensor_bytes
	}
	tr := &Trace{NumNPUs: 4, Graphs: []*Graph{{NPU: 0, Nodes: own}}}
	for npu := 1; npu < 4; npu++ {
		tr.Graphs = append(tr.Graphs, &Graph{NPU: npu, Nodes: shared})
	}
	err := tr.Validate()
	want := "et: npu 1 node 2: memory node needs positive tensor_bytes"
	if err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
	shared[1].TensorBytes = 64
	if err := tr.Validate(); err != nil {
		t.Fatalf("fixed shared list: %v", err)
	}
	// A sub-slice of a shared list is a distinct list with its own checks.
	tr.Graphs[3].Nodes = shared[1:]
	if err := tr.Validate(); err == nil {
		t.Fatal("suffix list with a dangling dep accepted")
	}
}

func TestP2PMatching(t *testing.T) {
	tr := validTrace()
	// Remove the recv: orphan send.
	tr.Graphs[1].Nodes = tr.Graphs[1].Nodes[:2]
	if err := tr.Validate(); err == nil {
		t.Error("orphan send accepted")
	}

	tr = validTrace()
	// Size mismatch.
	tr.Graphs[1].Nodes[2].CommBytes = 8192
	if err := tr.Validate(); err == nil {
		t.Error("size-mismatched p2p accepted")
	}

	tr = validTrace()
	// Orphan recv.
	tr.Graphs[0].Nodes = tr.Graphs[0].Nodes[:2]
	if err := tr.Validate(); err == nil {
		t.Error("orphan recv accepted")
	}

	tr = validTrace()
	// Send to nonexistent rank.
	tr.Graphs[0].Nodes[2].Peer = 5
	if err := tr.Validate(); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := Decode(bytes.NewBufferString(`{"num_npus":1,"graphs":[]}`)); err == nil {
		t.Error("invalid trace accepted")
	}
}

// Property: random DAGs built by only referencing earlier IDs always
// validate, and reversing an edge into a later node creates either a valid
// DAG or is caught — never a crash.
func TestRandomDAGValidates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		nodes := make([]*Node, n)
		for i := 0; i < n; i++ {
			node := &Node{ID: i + 1, Kind: KindCompute, FLOPs: float64(rng.Intn(1000))}
			for d := 1; d <= i; d++ {
				if rng.Intn(4) == 0 {
					node.Deps = append(node.Deps, d)
				}
			}
			nodes[i] = node
		}
		g := &Graph{NPU: 0, Nodes: nodes}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNodeCount(t *testing.T) {
	if got := validTrace().NodeCount(); got != 6 {
		t.Errorf("NodeCount = %d, want 6", got)
	}
}
