package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/collective"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/memory"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/units"
)

// Ways a run can execute.
const (
	ranFull      = "full"
	ranCollapsed = "collapsed"
	ranVoided    = "voided" // collapsed, then re-simulated in full
)

// bothPaths simulates trace twice on cfg, collapsed when Start allows it
// and with the collapse forced off, and returns each run's stats JSON, the
// events each executed on its engine, and how the first run executed.
func bothPaths(t testing.TB, cfg Config, trace *et.Trace) (got, want []byte, ranGot, ranWant uint64, how string) {
	t.Helper()
	var out [2][]byte
	var ran [2]uint64
	for i := range out {
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			sim.ForceFullPath()
		}
		stats, err := sim.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			how = executedAs(sim)
		}
		if out[i], err = json.Marshal(stats); err != nil {
			t.Fatal(err)
		}
		ran[i] = sim.eng.Executed()
	}
	return out[0], out[1], ran[0], ran[1], how
}

func executedAs(sim *Simulator) string {
	switch {
	case sim.copies == 1:
		return ranFull
	case sim.diverged || sim.coll.Diverged():
		return ranVoided
	}
	return ranCollapsed
}

// symmetryWorkloads builds every etgen generator's trace, scaled down, on
// top with model parallelism mp, plus repeated variants.
func symmetryWorkloads(t *testing.T, top *topology.Topology, mp int) map[string]*et.Trace {
	t.Helper()
	model := etgen.TransformerConfig{
		Name: "tiny", Params: 2e9, Layers: 2, Hidden: 1024, SeqLen: 256,
		MicroBatch: 1, BytesPerElem: 2, MP: mp,
	}
	moe := etgen.MoEConfig{Name: "moe", Layers: 2, LayerParamBytes: 64 * units.MB,
		ShardBytes: 8 * units.MB, A2ABytes: 4 * units.MB, FlopsPerLayer: 1e11}
	inSwitch := moe
	inSwitch.UseInSwitch = true
	n := top.NumNPUs()
	gens := map[string]func() (*et.Trace, error){
		"transformer": func() (*et.Trace, error) { return etgen.Transformer(top, model) },
		"gpt3": func() (*et.Trace, error) {
			gpt := etgen.GPT3()
			gpt.MP = mp
			return etgen.Transformer(top, gpt)
		},
		"fsdp": func() (*et.Trace, error) { return etgen.FSDP(top, etgen.FSDPConfig{Model: model}) },
		"dlrm": func() (*et.Trace, error) { return etgen.DLRMTrace(top, etgen.DLRM()) },
		"moe":  func() (*et.Trace, error) { return etgen.MoETrace(top, moe) },
		"moe-inswitch": func() (*et.Trace, error) {
			return etgen.MoETrace(top, inSwitch)
		},
		"threed": func() (*et.Trace, error) {
			return etgen.ThreeD(top, etgen.ThreeDConfig{Model: model, Stages: 2, MicroBatches: 2})
		},
		"pipeline": func() (*et.Trace, error) {
			return etgen.Pipeline(top, etgen.PipelineConfig{Name: "pp", Stages: 2, MicroBatches: 2,
				FlopsPerStage: 1e11, ActivationBytes: units.MB, GradBytes: 8 * units.MB})
		},
	}
	out := make(map[string]*et.Trace)
	for name, gen := range gens {
		tr, err := gen()
		if err != nil {
			t.Fatalf("%s on %v: %v", name, top, err)
		}
		out[name] = tr
	}
	for _, c := range []et.CollectiveType{et.CollAllReduce, et.CollAllGather, et.CollReduceScatter, et.CollAllToAll} {
		out[string(c)] = etgen.SingleCollective(top, c, units.ByteSize(n)*units.MB)
	}
	for _, name := range []string{"transformer", "dlrm", "pipeline"} {
		tr, err := et.Repeat(out[name], 2)
		if err != nil {
			t.Fatal(err)
		}
		out[name+"x2"] = tr
	}
	out[poolGroups] = poolGroupsTrace(top)
	return out
}

// poolGroups names the trace of poolGroupsTrace.
const poolGroups = "pool-groups"

// poolGroupsTrace loads from and stores to the remote pool around in-switch
// collectives on the innermost and outermost dimensions and the whole
// machine, beside a network All-Reduce on the innermost dimension.
func poolGroupsTrace(top *topology.Topology) *et.Trace {
	dim := func(d int) *et.GroupRef {
		return &et.GroupRef{Spans: []et.SpanRef{{Phys: d, K: top.Dims[d].Size, Stride: 1}}}
	}
	inner, outer := dim(0), dim(top.NumDims()-1)
	nodes := []*et.Node{
		{ID: 1, Kind: et.KindMemory, MemOp: et.MemLoad, MemLocation: et.MemRemote, TensorBytes: 16 << 20},
		{ID: 2, Kind: et.KindComm, Collective: et.CollAllGather, CommBytes: 8 << 20, InSwitch: true, Group: inner, Deps: []int{1}},
		{ID: 3, Kind: et.KindCompute, FLOPs: 2e10, Deps: []int{2}},
		{ID: 4, Kind: et.KindComm, Collective: et.CollReduceScatter, CommBytes: 24 << 20, InSwitch: true, Group: outer, Deps: []int{3}},
		{ID: 5, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 4 << 20, Group: inner, Deps: []int{3}},
		{ID: 6, Kind: et.KindComm, Collective: et.CollAllGather, CommBytes: 32 << 20, InSwitch: true, Deps: []int{4}},
		{ID: 7, Kind: et.KindMemory, MemOp: et.MemStore, MemLocation: et.MemRemote, TensorBytes: 8 << 20, Deps: []int{5, 6}},
	}
	return symmetricTrace(top.NumNPUs(), func(int) []*et.Node { return nodes })
}

// poolDesigns lists every memory pool design.
var poolDesigns = []memory.PoolDesign{
	memory.Hierarchical, memory.MultiLevelSwitch, memory.RingPool, memory.MeshPool, memory.PrivatePerGPU,
}

// testPool returns a 16-GPU pool of the given design.
func testPool(d memory.PoolDesign) memory.PoolConfig {
	return memory.PoolConfig{
		Design: d, NumNodes: 4, GPUsPerNode: 4, NumOutSwitches: 2,
		NumRemoteGroups: 4, ChunkSize: units.MiB, RemoteGroupBW: units.GBps(100),
		GPUSideOutFabricBW: units.GBps(100), InNodeFabricBW: units.GBps(256),
	}
}

// withPool attaches pool to cfg's memory system.
func withPool(cfg Config, pool memory.PoolConfig) Config {
	cfg.Memory.HasPool, cfg.Memory.Pool = true, pool
	return cfg
}

// TestSymmetricCollapseMatchesFull runs every generator on hierarchical,
// torus, mesh, oversubscribed-switch and strided-span wafer machines under
// both schedulers, collapsed and in full, and requires byte-identical run
// statistics. Traces without point-to-point nodes must collapse; GPT-3 on
// dimension-aligned MP and DP groups must do so without a full re-run.
// The traces that reach the remote pool also run on a pool of every
// design, where the switch-based ones fuse in-switch collectives on
// whole-machine and sub-group layouts.
func TestSymmetricCollapseMatchesFull(t *testing.T) {
	for _, m := range []struct {
		spec string
		gbps []float64
		mp   int
		// aligned: MP and DP groups share no physical dimension.
		aligned bool
	}{
		{"R(4)_FC(4)_SW(4)", []float64{250, 200, 50}, 16, true},
		{"T2D(4,4)_SW(4)", []float64{200, 50}, 16, true},
		{"M(4)_FC(4)_SW(4)", []float64{300, 150, 50}, 8, false},
		{"FC(4)_SW(8,2)", []float64{200, 100}, 4, true},
		{"R(16)", []float64{350}, 4, false}, // MP and DP groups are strided spans of one ring
	} {
		top, err := topology.ParseWithBandwidth(m.spec, m.gbps, 500*units.Nanosecond)
		if err != nil {
			t.Fatal(err)
		}
		traces := symmetryWorkloads(t, top, m.mp)
		for name, tr := range traces {
			for _, policy := range []collective.Policy{collective.Baseline, collective.Themis} {
				t.Run(fmt.Sprintf("%s/%s/%v", m.spec, name, policy), func(t *testing.T) {
					cfg := testConfig(t, top)
					cfg.Policy, cfg.Chunks = policy, 16
					check := func(t *testing.T, cfg Config) {
						got, want, ranGot, ranWant, how := bothPaths(t, cfg, tr)
						if !bytes.Equal(got, want) {
							t.Fatalf("collapsed run differs from the full run:\n%s\n%s", got, want)
						}
						if p2p := name == "threed" || name == "pipeline" || name == "pipelinex2"; (how == ranFull) != p2p {
							t.Errorf("ran %s; trace has point-to-point nodes: %v", how, p2p)
						}
						if name == "gpt3" && m.aligned && how != ranCollapsed {
							t.Errorf("GPT-3 on aligned groups ran %s", how)
						}
						// A lone whole-machine collective has nothing to collapse;
						// every other trace here computes on every rank.
						lone := len(tr.Graphs[0].Nodes) == 1
						if how == ranCollapsed && (ranGot > ranWant || !lone && ranGot == ranWant) {
							t.Errorf("collapsed run executed %d events, full run %d", ranGot, ranWant)
						}
					}
					check(t, cfg)
					if name != "moe" && name != "moe-inswitch" && name != poolGroups {
						return
					}
					for _, d := range poolDesigns {
						t.Run(d.String(), func(t *testing.T) { check(t, withPool(cfg, testPool(d))) })
					}
				})
			}
		}
	}
}

// TestTiedCompletionsVoidTheCollapse: two equal All-Reduces on the two
// rings of R(4)_R(4) finish in the same instant. Per rank, their blocks
// complete in launch order, so rank 0 sees the dim-0 one first and rank 12
// the dim-1 one; each then enters the next whole-machine collectives in a
// different order. The collapsed run must notice the tie and report the
// per-rank result.
func TestTiedCompletionsVoidTheCollapse(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
	)
	ring := func(phys int) *et.GroupRef { return &et.GroupRef{Spans: []et.SpanRef{{Phys: phys, K: 4, Stride: 1}}} }
	nodes := []*et.Node{
		{ID: 1, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 8 << 20, Group: ring(0)},
		{ID: 2, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 8 << 20, Group: ring(1)},
		{ID: 3, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 4 << 20, Deps: []int{1}},
		{ID: 4, Kind: et.KindComm, Collective: et.CollAllReduce, CommBytes: 16 << 20, Deps: []int{2}},
		{ID: 5, Kind: et.KindCompute, FLOPs: 1e9, Deps: []int{3}},
		{ID: 6, Kind: et.KindCompute, FLOPs: 2e9, Deps: []int{4}},
	}
	trace := symmetricTrace(16, func(int) []*et.Node { return nodes })
	got, want, _, _, how := bothPaths(t, testConfig(t, top), trace)
	if how != ranVoided {
		t.Errorf("ran %s, want the tie to void the collapse", how)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("collapsed run differs from the full run:\n%s\n%s", got, want)
	}
}

// TestRepeatedTraceStaysSymmetric: repeating an SPMD trace keeps one node
// list for every rank, so the repeated trace collapses, and it simulates
// exactly as a repetition of per-rank private lists does.
func TestRepeatedTraceStaysSymmetric(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(200)},
		topology.Dim{Kind: topology.Switch, Size: 8, Bandwidth: units.GBps(50)},
	)
	one, err := etgen.DLRMTrace(top, etgen.DLRM())
	if err != nil {
		t.Fatal(err)
	}
	var stats [2][]byte
	for i, src := range []*et.Trace{one, deepCopy(one)} {
		tr, err := et.Repeat(src, 3)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewSimulator(testConfig(t, top))
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		if how, want := executedAs(sim), []string{ranCollapsed, ranFull}[i]; how != want {
			t.Errorf("trace %d ran %s, want %s", i, how, want)
		}
		if stats[i], err = json.Marshal(st); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(stats[0], stats[1]) {
		t.Errorf("shared and private repeated traces simulate differently:\n%s\n%s", stats[0], stats[1])
	}
}

// TestCollapseStaysEngaged guards the collapse's reach: GPT-3 on 8192 NPUs,
// with and without a memory pool, must report the full machine's event
// count while executing only rank 0's share of it, and so must the
// in-switch MoE on the pool.
func TestCollapseStaysEngaged(t *testing.T) {
	top, err := topology.ParseWithBandwidth("R(4)_FC(4)_SW(512)", []float64{200, 100, 50}, 500*units.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	gpt3, err := etgen.Transformer(top, etgen.GPT3())
	if err != nil {
		t.Fatal(err)
	}
	moe, err := etgen.MoETrace(top, etgen.MoE1T(true))
	if err != nil {
		t.Fatal(err)
	}
	pooled := withPool(testConfig(t, top), testPool(memory.Hierarchical))
	for _, c := range []struct {
		name   string
		cfg    Config
		trace  *et.Trace
		events uint64 // the full machine's count; 0 to check only the ratio
	}{
		{"gpt3", testConfig(t, top), gpt3, 51931136},
		{"gpt3-pool", pooled, gpt3, 51931136},
		{"moe-inswitch-pool", pooled, moe, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim, err := NewSimulator(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := sim.Run(c.trace)
			if err != nil {
				t.Fatal(err)
			}
			if c.events != 0 && stats.Events != c.events {
				t.Errorf("Events = %d, want the full machine's %d", stats.Events, c.events)
			}
			ran, how := sim.eng.Executed(), executedAs(sim)
			if how != ranCollapsed || ran >= 100000 || ran*50 > stats.Events {
				t.Errorf("ran %s, executing %d of %d events; want collapsed, under 100000 and a fiftieth", how, ran, stats.Events)
			}
		})
	}
}

// TestIneligibleRunsDoNotCollapse: a run with anything that tells ranks or
// jobs apart executes every event it reports. A pool collapses unless a
// remote arbiter shares it with other jobs.
func TestIneligibleRunsDoNotCollapse(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(200)},
		topology.Dim{Kind: topology.Switch, Size: 4, Bandwidth: units.GBps(50)},
	)
	dlrm, err := etgen.DLRMTrace(top, etgen.DLRM())
	if err != nil {
		t.Fatal(err)
	}
	moe, err := etgen.MoETrace(top, etgen.MoE1T(true))
	if err != nil {
		t.Fatal(err)
	}
	pipeline, err := etgen.Pipeline(top, etgen.PipelineConfig{Name: "pp", Stages: 2, MicroBatches: 2,
		FlopsPerStage: 1e11, ActivationBytes: units.MB, GradBytes: 8 * units.MB})
	if err != nil {
		t.Fatal(err)
	}
	base := testConfig(t, top)
	straggler := &scenario.Scenario{Events: []scenario.Event{{Kind: scenario.StraggleNPU, NPU: 1, Factor: 2}}}
	for _, c := range []struct {
		name  string
		cfg   func(Config) Config
		trace *et.Trace
	}{
		{"pipeline", func(c Config) Config { return c }, pipeline},
		{"scenario", func(c Config) Config { c.Scenario = straggler; return c }, dlrm},
		{"flow-controller", func(c Config) Config { c.FlowController = nopFlows{}; return c }, dlrm},
		{"timeline", func(c Config) Config { c.RecordTimeline = true; return c }, dlrm},
		{"pool", func(c Config) Config {
			c = withPool(c, testPool(memory.Hierarchical))
			c.RemoteArbiter = nopArbiter{}
			return c
		}, moe},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim, err := NewSimulator(c.cfg(base))
			if err != nil {
				t.Fatal(err)
			}
			stats, err := sim.Run(c.trace)
			if err != nil {
				t.Fatal(err)
			}
			if ran := sim.eng.Executed(); ran != stats.Events {
				t.Errorf("executed %d events but reported %d", ran, stats.Events)
			}
		})
	}
}

// nopFlows is a flow controller that never stretches a flow.
type nopFlows struct{}

func (nopFlows) Arbitrates(int) bool     { return true }
func (nopFlows) FlowStarted(int) float64 { return 1 }
func (nopFlows) FlowFinished(int)        {}

// nopArbiter is a remote-pool arbiter that never stretches an access.
type nopArbiter struct{}

func (nopArbiter) RemoteStarted() float64 { return 1 }
func (nopArbiter) RemoteFinished()        {}
