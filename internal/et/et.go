// Package et defines the ASTRA-sim execution trace (ET) — the paper's
// common trace format that decouples parallelization strategies from the
// simulator frontend (Section IV-A). A trace holds one dependency graph per
// NPU; nodes are compute, memory, or communication operations, and edges
// encode both intra-layer ordering and the parallelization strategy itself.
// Because each NPU has an independent graph, NPUs may execute different
// operations at the same time, which is what enables pipeline parallelism
// and other asymmetric strategies.
package et

import (
	"encoding/json"
	"fmt"
	"io"
)

// NodeKind is the ET node type of Fig. 1(b), with communication split into
// collective and point-to-point flavours.
type NodeKind string

// Node kinds.
const (
	KindCompute NodeKind = "COMP"
	KindMemory  NodeKind = "MEM"
	KindComm    NodeKind = "COMM_COLL"
	KindSend    NodeKind = "COMM_SEND"
	KindRecv    NodeKind = "COMM_RECV"
)

// CollectiveType names a collective pattern in trace metadata.
type CollectiveType string

// Collective types (Fig. 2).
const (
	CollAllReduce     CollectiveType = "ALL_REDUCE"
	CollAllGather     CollectiveType = "ALL_GATHER"
	CollReduceScatter CollectiveType = "REDUCE_SCATTER"
	CollAllToAll      CollectiveType = "ALL_TO_ALL"
)

// MemOp distinguishes memory-node loads from stores.
type MemOp string

// Memory operations.
const (
	MemLoad  MemOp = "LOAD"
	MemStore MemOp = "STORE"
)

// MemLocation says which memory tier a memory node touches.
type MemLocation string

// Memory locations.
const (
	MemLocal  MemLocation = "LOCAL"
	MemRemote MemLocation = "REMOTE"
)

// GroupRef describes a communicator group in trace metadata as logical
// spans over physical topology dimensions (see collective.Span). An empty
// Spans list means "all dimensions in full" (the whole machine).
type GroupRef struct {
	Spans []SpanRef `json:"spans,omitempty"`
}

// SpanRef is the serialized form of a logical group span.
type SpanRef struct {
	Phys   int `json:"phys"`
	K      int `json:"k"`
	Stride int `json:"stride"`
}

// Node is one ET operation. Metadata fields are meaningful per kind:
//
//	COMP:      FLOPs, MemBytes (roofline inputs)
//	MEM:       MemOp, MemLocation, TensorBytes
//	COMM_COLL: Collective, CommBytes, Group, InSwitch
//	COMM_SEND: Peer, CommBytes, Tag
//	COMM_RECV: Peer, CommBytes, Tag
type Node struct {
	ID   int      `json:"id"`
	Name string   `json:"name,omitempty"`
	Kind NodeKind `json:"kind"`
	// Deps lists node IDs (same NPU graph) that must complete first.
	Deps []int `json:"deps,omitempty"`

	// Compute metadata.
	FLOPs    float64 `json:"flops,omitempty"`
	MemBytes int64   `json:"mem_bytes,omitempty"`

	// Memory metadata.
	MemOp       MemOp       `json:"mem_op,omitempty"`
	MemLocation MemLocation `json:"mem_location,omitempty"`
	TensorBytes int64       `json:"tensor_bytes,omitempty"`

	// Communication metadata.
	Collective CollectiveType `json:"collective,omitempty"`
	CommBytes  int64          `json:"comm_bytes,omitempty"`
	Group      *GroupRef      `json:"group,omitempty"`
	// InSwitch requests the collective be fused into the disaggregated
	// memory fabric (gather-on-load / reduce-on-store, Section IV-D.3).
	InSwitch bool `json:"in_switch,omitempty"`
	Peer     int  `json:"peer,omitempty"`
	Tag      int  `json:"tag,omitempty"`
}

// Graph is one NPU's execution trace.
type Graph struct {
	NPU   int     `json:"npu"`
	Nodes []*Node `json:"nodes"`
}

// Trace is a whole-machine execution trace: one graph per NPU.
type Trace struct {
	// Name labels the workload (e.g. "GPT-3/MP16xDP32").
	Name string `json:"name,omitempty"`
	// NumNPUs is the machine size the trace was generated for.
	NumNPUs int      `json:"num_npus"`
	Graphs  []*Graph `json:"graphs"`
}

// Validate checks structural invariants of a single graph: unique IDs,
// dependencies referencing existing earlier-declared nodes, kind-specific
// metadata present, and acyclicity.
func (g *Graph) Validate() error {
	ids := make(map[int]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if n == nil {
			return fmt.Errorf("et: npu %d has a nil node", g.NPU)
		}
		if ids[n.ID] {
			return fmt.Errorf("et: npu %d has duplicate node id %d", g.NPU, n.ID)
		}
		ids[n.ID] = true
	}
	for _, n := range g.Nodes {
		for _, d := range n.Deps {
			if !ids[d] {
				return fmt.Errorf("et: npu %d node %d depends on unknown node %d", g.NPU, n.ID, d)
			}
			if d == n.ID {
				return fmt.Errorf("et: npu %d node %d depends on itself", g.NPU, n.ID)
			}
		}
		if err := n.validateMeta(); err != nil {
			return fmt.Errorf("et: npu %d node %d: %w", g.NPU, n.ID, err)
		}
	}
	if g.hasCycle() {
		return fmt.Errorf("et: npu %d graph has a dependency cycle", g.NPU)
	}
	return nil
}

func (n *Node) validateMeta() error {
	switch n.Kind {
	case KindCompute:
		if n.FLOPs < 0 || n.MemBytes < 0 {
			return fmt.Errorf("compute node with negative work")
		}
	case KindMemory:
		if n.MemOp != MemLoad && n.MemOp != MemStore {
			return fmt.Errorf("memory node needs mem_op LOAD or STORE, got %q", n.MemOp)
		}
		if n.MemLocation != MemLocal && n.MemLocation != MemRemote {
			return fmt.Errorf("memory node needs mem_location LOCAL or REMOTE, got %q", n.MemLocation)
		}
		if n.TensorBytes <= 0 {
			return fmt.Errorf("memory node needs positive tensor_bytes")
		}
	case KindComm:
		switch n.Collective {
		case CollAllReduce, CollAllGather, CollReduceScatter, CollAllToAll:
		default:
			return fmt.Errorf("collective node has unknown type %q", n.Collective)
		}
		if n.CommBytes <= 0 {
			return fmt.Errorf("collective node needs positive comm_bytes")
		}
	case KindSend, KindRecv:
		if n.CommBytes <= 0 {
			return fmt.Errorf("p2p node needs positive comm_bytes")
		}
		if n.Peer < 0 {
			return fmt.Errorf("p2p node needs a peer rank")
		}
	default:
		return fmt.Errorf("unknown node kind %q", n.Kind)
	}
	return nil
}

// hasCycle runs Kahn's algorithm over the dependency edges.
func (g *Graph) hasCycle() bool {
	indeg := make(map[int]int, len(g.Nodes))
	children := make(map[int][]int, len(g.Nodes))
	for _, n := range g.Nodes {
		indeg[n.ID] += 0
		for _, d := range n.Deps {
			children[d] = append(children[d], n.ID)
			indeg[n.ID]++
		}
	}
	queue := make([]int, 0, len(g.Nodes))
	for id, deg := range indeg {
		if deg == 0 {
			queue = append(queue, id)
		}
	}
	visited := 0
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		visited++
		for _, c := range children[id] {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return visited != len(g.Nodes)
}

// Validate checks the whole trace: per-graph invariants, one graph per NPU
// rank, and point-to-point send/recv matching across graphs (every send
// must have a matching recv at the peer with the same tag and size, and
// vice versa) — mismatched P2P nodes would deadlock the simulation.
func (t *Trace) Validate() error {
	if t.NumNPUs <= 0 {
		return fmt.Errorf("et: trace needs a positive NPU count")
	}
	if len(t.Graphs) != t.NumNPUs {
		return fmt.Errorf("et: trace has %d graphs for %d NPUs", len(t.Graphs), t.NumNPUs)
	}
	// A node list shared by several graphs (symmetric traces share one
	// across every rank) is validated once, on the first graph using it:
	// the per-graph checks depend only on the list, apart from the NPU the
	// error names.
	type listKey struct {
		first **Node
		n     int
	}
	valid := make(map[listKey]bool)
	seen := make(map[int]bool, len(t.Graphs))
	for _, g := range t.Graphs {
		if g.NPU < 0 || g.NPU >= t.NumNPUs {
			return fmt.Errorf("et: graph for out-of-range npu %d", g.NPU)
		}
		if seen[g.NPU] {
			return fmt.Errorf("et: duplicate graph for npu %d", g.NPU)
		}
		seen[g.NPU] = true
		if len(g.Nodes) == 0 {
			continue
		}
		k := listKey{first: &g.Nodes[0], n: len(g.Nodes)}
		if valid[k] {
			continue
		}
		if err := g.Validate(); err != nil {
			return err
		}
		valid[k] = true
	}
	return t.validateP2P()
}

type p2pKey struct {
	src, dst, tag int
}

func (t *Trace) validateP2P() error {
	sends := make(map[p2pKey][]int64)
	recvs := make(map[p2pKey][]int64)
	for _, g := range t.Graphs {
		for _, n := range g.Nodes {
			switch n.Kind {
			case KindSend:
				if n.Peer >= t.NumNPUs {
					return fmt.Errorf("et: npu %d sends to out-of-range peer %d", g.NPU, n.Peer)
				}
				k := p2pKey{src: g.NPU, dst: n.Peer, tag: n.Tag}
				sends[k] = append(sends[k], n.CommBytes)
			case KindRecv:
				if n.Peer >= t.NumNPUs {
					return fmt.Errorf("et: npu %d receives from out-of-range peer %d", g.NPU, n.Peer)
				}
				k := p2pKey{src: n.Peer, dst: g.NPU, tag: n.Tag}
				recvs[k] = append(recvs[k], n.CommBytes)
			}
		}
	}
	for k, s := range sends {
		r := recvs[k]
		if len(s) != len(r) {
			return fmt.Errorf("et: %d sends but %d recvs for %d->%d tag %d", len(s), len(r), k.src, k.dst, k.tag)
		}
		for i := range s {
			if s[i] != r[i] {
				return fmt.Errorf("et: size mismatch on %d->%d tag %d: send %d vs recv %d", k.src, k.dst, k.tag, s[i], r[i])
			}
		}
		delete(recvs, k)
	}
	for k, r := range recvs {
		return fmt.Errorf("et: %d recvs with no send for %d->%d tag %d", len(r), k.src, k.dst, k.tag)
	}
	return nil
}

// NodeCount returns the total number of nodes across all graphs.
func (t *Trace) NodeCount() int {
	n := 0
	for _, g := range t.Graphs {
		n += len(g.Nodes)
	}
	return n
}

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Decode reads a trace from JSON and validates it.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("et: decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}
