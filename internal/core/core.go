// Package core is the simulator's system layer plus the paper's graph-based
// execution engine (Section IV-A): each NPU independently consumes its
// execution-trace graph, issuing compute nodes to the roofline model,
// memory nodes to the memory API, and communication nodes to the collective
// engine or the point-to-point network API. Dependent nodes become ready
// when all parents complete; NPUs run different operations at the same
// time, which is what enables pipeline parallelism and other asymmetric
// strategies.
//
// The engine also implements the collective rendezvous protocol: the k-th
// collective issued on a communicator instance by each member NPU is the
// same logical collective, and it launches once every member has reached
// it — synchronous-training semantics.
//
// Symmetric runs are collapsed: when every rank shares one template and
// nothing tells ranks apart — no point-to-point nodes, scenario events,
// flow controller, remote-pool arbiter or recorded timeline — Start drives
// rank 0 alone. A memory pool without an arbiter keeps no state, so pool
// accesses and fused in-switch collectives collapse too. Each collective
// launches for every block of its layout (collective.StartRepresentative)
// and each event counts once per rank or block it stands for, so RunStats
// are the full machine's. Where same-instant ties could reach blocks in
// different orders on the per-rank path, Finalize re-simulates every rank.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/et"
	"repro/internal/memory"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// Config assembles a simulated machine.
type Config struct {
	Topology *topology.Topology
	Compute  compute.Model
	Memory   memory.System
	// Policy selects the collective chunk scheduler (Baseline or Themis).
	Policy collective.Policy
	// Chunks is the collective pipelining depth (default 64).
	Chunks int
	// CollectiveLogLimit caps how many collective results are retained in
	// the run stats (default 1024; 0 keeps none).
	CollectiveLogLimit int
	// RecordTimeline retains each NPU's activity intervals in the run
	// stats (for Chrome-trace export). Off by default: a large run
	// produces one interval per activity change per NPU.
	RecordTimeline bool
	// ModelTransitCongestion enables first-order congestion on the
	// analytical backend: ring point-to-point messages occupy every link
	// they transit (the paper's stated future work). Off by default —
	// endpoint charging is exact for congestion-free hierarchical
	// collectives.
	ModelTransitCongestion bool
	// FlowController, when non-nil, arbitrates this simulator's network
	// flows against other simulators space-sharing the same physical
	// fabric — the multi-job cluster layer. Nil keeps the backend's
	// allocation-free isolated behavior.
	FlowController network.FlowController
	// RemoteArbiter, when non-nil, scales remote-memory access (and
	// in-switch collective) durations by cross-job memory-pool contention.
	RemoteArbiter RemoteArbiter
	// Scenario, when non-nil, injects timed infrastructure perturbations —
	// link degradation/restoration, link/NPU failures, compute stragglers —
	// as events on the simulator's timeline, with times relative to the
	// trace's release. A scenario with no events leaves the run
	// byte-identical to a clean one.
	Scenario *scenario.Scenario
}

// RemoteArbiter arbitrates a remote memory pool shared by several
// co-scheduled simulators. RemoteStarted is called when a remote access
// begins and returns the contention factor (>= 1) multiplying its
// duration; RemoteFinished is called when the access completes. Both run
// on the single-threaded event engine.
type RemoteArbiter interface {
	RemoteStarted() float64
	RemoteFinished()
}

// Activity labels a timeline interval's attribution category.
type Activity string

// Timeline activity categories (matching the Breakdown fields).
const (
	ActCompute   Activity = "compute"
	ActComm      Activity = "comm"
	ActRemoteMem Activity = "remote-mem"
	ActLocalMem  Activity = "local-mem"
	ActIdle      Activity = "idle"
)

// Interval is one attributed span of an NPU's timeline.
type Interval struct {
	NPU      int
	Activity Activity
	Start    units.Time
	End      units.Time
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Topology == nil {
		return fmt.Errorf("core: config needs a topology")
	}
	if err := c.Compute.Validate(); err != nil {
		return err
	}
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	if c.Chunks < 0 {
		return fmt.Errorf("core: negative chunk count")
	}
	if c.Scenario != nil {
		if err := c.Scenario.Validate(c.Topology.NumNPUs(), c.Topology.NumDims()); err != nil {
			return err
		}
	}
	return nil
}

// Breakdown is the per-NPU exposed-time attribution of Fig. 11: every
// instant of the run is attributed to exactly one category, with compute
// hiding communication, communication hiding memory, and remote memory
// hiding local memory.
type Breakdown struct {
	Compute          units.Time
	ExposedComm      units.Time
	ExposedRemoteMem units.Time
	ExposedLocalMem  units.Time
	Idle             units.Time
}

// Total returns the sum of all categories (the NPU's wall-clock span).
func (b Breakdown) Total() units.Time {
	return b.Compute + b.ExposedComm + b.ExposedRemoteMem + b.ExposedLocalMem + b.Idle
}

// RunStats is the result of one simulated execution.
type RunStats struct {
	// Makespan is the end-to-end simulated runtime.
	Makespan units.Time
	// PerNPU holds each NPU's exposed-time breakdown.
	PerNPU []Breakdown
	// Collectives logs completed collectives (capped by config).
	Collectives []collective.Result
	// TrafficPerDim is the per-NPU mean sent+received bytes per physical
	// dimension across the whole run.
	TrafficPerDim []units.ByteSize
	// Events is the number of discrete events fired, counting those a
	// collapsed run or a skipped flow-finish event represents.
	Events uint64
	// Timeline holds each NPU's attributed activity intervals when
	// Config.RecordTimeline is set (idle spans are omitted).
	Timeline []Interval
}

// MeanBreakdown averages the per-NPU breakdowns.
func (s RunStats) MeanBreakdown() Breakdown {
	var m Breakdown
	if len(s.PerNPU) == 0 {
		return m
	}
	for _, b := range s.PerNPU {
		m.Compute += b.Compute
		m.ExposedComm += b.ExposedComm
		m.ExposedRemoteMem += b.ExposedRemoteMem
		m.ExposedLocalMem += b.ExposedLocalMem
		m.Idle += b.Idle
	}
	n := units.Time(len(s.PerNPU))
	m.Compute /= n
	m.ExposedComm /= n
	m.ExposedRemoteMem /= n
	m.ExposedLocalMem /= n
	m.Idle /= n
	return m
}

// Simulator executes traces over a configured machine. A Simulator is
// single-use: construct, Run once, read stats. Several simulators may
// share one timeline engine (NewSimulatorOn) to model co-scheduled jobs;
// each keeps its own network backend, collective engine and trace state.
type Simulator struct {
	cfg  Config
	eng  *timeline.Engine
	net  *network.Backend
	coll *collective.Engine

	npus []*npuState

	rendezvous map[rendezvousKey]*pendingCollective

	// layouts interns the trace's distinct communicator span layouts,
	// validated once in Start; layouts[0] is the whole machine.
	layouts [][]collective.Span

	collLog   []collective.Result
	remaining int

	// copies is how many ranks each simulated rank stands for: the NPU
	// count when Start collapsed the run onto rank 0, else 1. forceFull
	// disables the collapse. A collapsed run keeps its trace and the
	// fields settled uses.
	copies             int
	forceFull          bool
	trace              *et.Trace
	doneAt, collDoneAt units.Time
	diverged           bool

	// straggle holds per-NPU compute-time multipliers set by scenario
	// events; the zero value means no stragglers.
	straggle compute.ScaleTable

	// startAt is the simulated time the trace was released (job arrival);
	// finished is when its last node completed.
	startAt  units.Time
	finished units.Time
}

// graphTemplate is the read-only dependency structure of one node list,
// built once in Start and shared by every rank whose graph uses that list:
// a symmetric SPMD trace has a single template for the whole machine.
// Nodes are addressed by their index in the list.
type graphTemplate struct {
	nodes []*et.Node
	// indeg is each node's dependency count (a repeated dep counts twice).
	indeg []int32
	// children lists each node's dependents in node-list order, once per
	// dep entry naming it.
	children [][]int32
	// roots are the initially ready nodes in ascending-ID order.
	roots []int32
	// commKey is a collective node's communicator key, layout*2+inSwitch:
	// it indexes the issuing rank's sequence counters and, with the rank's
	// group origin and that sequence, identifies the rendezvous.
	commKey []int32
}

// Node states beyond a positive unmet-dependency count.
const (
	nodeIssued int32 = -1 // dispatched to its layer, not yet finished
	nodeDone   int32 = -2
)

type npuState struct {
	rank int
	tmpl *graphTemplate
	// state holds each template node's unmet-dependency count, or
	// nodeIssued / nodeDone.
	state []int32
	// collSeq counts the collectives issued per communicator key.
	collSeq []int32

	// Activity counters for exposed-time attribution.
	nCompute, nComm, nRemote, nLocal int
	lastTouch                        units.Time
	breakdown                        Breakdown

	// timeline accumulates attributed intervals when recording is on;
	// contiguous same-activity intervals are merged as they are appended.
	timeline  []Interval
	recording bool
}

// rendezvousKey names one logical collective: the seq-th issued on the
// communicator instance with the given key and origin (lowest member).
type rendezvousKey struct {
	key    int32
	origin int
	seq    int32
}

type pendingCollective struct {
	group   collective.Group
	members []int
	arrived int
	nodes   []int32 // per member position: the node index to complete
}

// NewSimulator builds a simulator for the given machine configuration,
// driven by its own private event engine.
func NewSimulator(cfg Config) (*Simulator, error) {
	return NewSimulatorOn(timeline.New(), cfg)
}

// NewSimulatorOn builds a simulator driven by an existing engine, so
// several simulators — the jobs of a multi-tenant cluster — can interleave
// on one shared timeline. The caller runs the engine itself and collects
// each simulator's statistics with Finalize.
func NewSimulatorOn(eng *timeline.Engine, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Chunks == 0 {
		cfg.Chunks = 64
	}
	if cfg.CollectiveLogLimit == 0 {
		cfg.CollectiveLogLimit = 1024
	}
	net := network.NewBackend(eng, cfg.Topology)
	net.SetTransitCharging(cfg.ModelTransitCongestion)
	net.SetFlowController(cfg.FlowController)
	coll := collective.NewEngine(net,
		collective.WithPolicy(cfg.Policy),
		collective.WithChunks(cfg.Chunks),
		collective.WithRepresent(eng.Represent))
	return &Simulator{
		cfg:        cfg,
		eng:        eng,
		net:        net,
		coll:       coll,
		rendezvous: make(map[rendezvousKey]*pendingCollective),
	}, nil
}

// Run executes the trace to completion on the simulator's engine and
// returns the run statistics — the single-job path.
func (s *Simulator) Run(trace *et.Trace) (*RunStats, error) {
	if err := s.Start(trace, s.eng.Now()); err != nil {
		return nil, err
	}
	if _, err := s.eng.Run(); err != nil {
		return nil, err
	}
	return s.Finalize()
}

// Start validates the trace, builds the dependency state and releases the
// initially ready nodes at simulated time `at` (the job's arrival). When
// `at` equals the engine's current clock the nodes are issued immediately,
// preserving the isolated-run event order exactly; a later arrival is
// scheduled as a timeline event. The caller then runs the shared engine
// and calls Finalize.
func (s *Simulator) Start(trace *et.Trace, at units.Time) error {
	if s.npus != nil {
		return fmt.Errorf("core: simulator already started (single-use)")
	}
	if err := trace.Validate(); err != nil {
		return err
	}
	if trace.NumNPUs != s.cfg.Topology.NumNPUs() {
		return fmt.Errorf("core: trace is for %d NPUs but topology has %d",
			trace.NumNPUs, s.cfg.Topology.NumNPUs())
	}
	if at < s.eng.Now() {
		return fmt.Errorf("core: start time %v is in the engine's past (now %v)", at, s.eng.Now())
	}
	tmpls, err := s.buildTemplates(trace)
	if err != nil {
		return err
	}
	s.startAt = at

	s.copies = 1
	graphs := trace.Graphs
	if s.symmetric(tmpls) {
		s.copies, s.trace, s.doneAt, s.collDoneAt = trace.NumNPUs, trace, -1, -1
		graphs = []*et.Graph{{NPU: 0, Nodes: tmpls[0].nodes}}
	}
	s.npus = make([]*npuState, len(graphs))
	total := 0
	for _, g := range graphs {
		total += len(g.Nodes)
	}
	// One arena holds every simulated rank's node state; each rank starts
	// from its template's dependency counts.
	arena := make([]int32, 0, total)
	for i, g := range graphs {
		tmpl := tmpls[i]
		lo := len(arena)
		arena = append(arena, tmpl.indeg...)
		s.npus[g.NPU] = &npuState{
			rank:      g.NPU,
			tmpl:      tmpl,
			state:     arena[lo:len(arena):len(arena)],
			collSeq:   make([]int32, 2*len(s.layouts)),
			lastTouch: at,
			recording: s.cfg.RecordTimeline,
		}
	}
	s.remaining = total

	// Schedule scenario events before the release so perturbations due at
	// the release instant apply before the first nodes issue — a t=0
	// straggler must already slow the job's first compute operators.
	if s.cfg.Scenario != nil {
		for _, ev := range s.cfg.Scenario.Events {
			ev := ev
			if fireAt := at + ev.At; fireAt > s.eng.Now() {
				s.eng.ScheduleAt(fireAt, func() { s.applyScenarioEvent(ev) })
			} else {
				s.applyScenarioEvent(ev)
			}
		}
	}

	if at == s.eng.Now() {
		s.release()
	} else {
		s.eng.ScheduleAt(at, s.release)
	}
	return nil
}

// symmetric reports whether rank 0 can stand for every rank (see the
// package doc).
func (s *Simulator) symmetric(tmpls []*graphTemplate) bool {
	c := s.cfg
	ok := !s.forceFull && (c.Scenario == nil || len(c.Scenario.Events) == 0) &&
		c.FlowController == nil && c.RemoteArbiter == nil && !c.RecordTimeline
	for _, t := range tmpls {
		ok = ok && t == tmpls[0]
	}
	for _, n := range tmpls[0].nodes {
		ok = ok && n.Kind != et.KindSend && n.Kind != et.KindRecv
	}
	return ok
}

// applyScenarioEvent dispatches one perturbation to the layer it targets.
// The network mutation hooks validate their arguments and degrade to no-ops
// on out-of-range targets, so a validated scenario can never panic here.
func (s *Simulator) applyScenarioEvent(ev scenario.Event) {
	switch ev.Kind {
	case scenario.DegradeLink:
		s.net.SetDimBandwidthScale(ev.Dim, ev.Factor)
	case scenario.RestoreLink:
		s.net.SetDimBandwidthScale(ev.Dim, 1)
	case scenario.FailLink:
		s.net.SetDimBandwidthScale(ev.Dim, scenario.FailedLinkResidual)
		if ev.Recovery > 0 {
			dim := ev.Dim
			s.eng.Schedule(ev.Recovery, func() { s.net.SetDimBandwidthScale(dim, 1) })
		}
	case scenario.FailNPU:
		s.net.StallNPULinks(ev.NPU, s.eng.Now()+ev.Recovery)
	case scenario.StraggleNPU:
		s.straggle.Set(s.cfg.Topology.NumNPUs(), ev.NPU, ev.Factor)
	}
}

// release issues every rank's initially ready nodes, rank by rank, in
// ascending-ID order within a rank, so the issue order — and therefore the
// simulated output — is independent of node-list order.
func (s *Simulator) release() {
	for _, st := range s.npus {
		for _, i := range st.tmpl.roots {
			s.issue(st, i)
		}
	}
}

// buildTemplates validates every collective node against the machine and
// returns each trace graph's dependency template, building one per
// distinct node list. Communicator layouts are interned by content into
// s.layouts. Errors name the first NPU (in trace order) whose graph uses
// the offending list.
func (s *Simulator) buildTemplates(trace *et.Trace) ([]*graphTemplate, error) {
	type listKey struct {
		first **et.Node
		n     int
	}
	s.layouts = [][]collective.Span{collective.FullMachine(s.cfg.Topology).Spans}
	refs := make(map[*et.GroupRef]int32)
	byList := make(map[listKey]*graphTemplate)
	tmpls := make([]*graphTemplate, len(trace.Graphs))
	for gi, g := range trace.Graphs {
		var k listKey
		if len(g.Nodes) > 0 {
			k = listKey{first: &g.Nodes[0], n: len(g.Nodes)}
		}
		tmpl := byList[k]
		if tmpl == nil {
			var err error
			if tmpl, err = s.newTemplate(g, refs); err != nil {
				return nil, err
			}
			byList[k] = tmpl
		}
		tmpls[gi] = tmpl
	}
	return tmpls, nil
}

// newTemplate builds the dependency template of g's node list. The trace
// has been validated, so IDs are unique and every dep names a node.
func (s *Simulator) newTemplate(g *et.Graph, refs map[*et.GroupRef]int32) (*graphTemplate, error) {
	nodes := g.Nodes
	t := &graphTemplate{
		nodes:    nodes,
		indeg:    make([]int32, len(nodes)),
		children: make([][]int32, len(nodes)),
		commKey:  make([]int32, len(nodes)),
	}
	index := make(map[int]int32, len(nodes))
	for i, n := range nodes {
		index[n.ID] = int32(i)
	}
	for i, n := range nodes {
		t.indeg[i] = int32(len(n.Deps))
		for _, d := range n.Deps {
			p := index[d]
			t.children[p] = append(t.children[p], int32(i))
		}
		if len(n.Deps) == 0 {
			t.roots = append(t.roots, int32(i))
		}
		if n.Kind == et.KindComm {
			key, err := s.commKey(n, g.NPU, refs)
			if err != nil {
				return nil, err
			}
			t.commKey[i] = key
		}
	}
	sort.Slice(t.roots, func(a, b int) bool { return nodes[t.roots[a]].ID < nodes[t.roots[b]].ID })
	return t, nil
}

// commKey resolves a collective node's communicator to its interned layout
// and checks the collective can run on it. Span validity does not depend
// on the issuing rank (see collective.NewSpanGroup), so each GroupRef is
// resolved once; layouts are interned by content because trace builders
// allocate a GroupRef per node, and an explicit whole-machine layout is the
// same communicator as no GroupRef at all.
func (s *Simulator) commKey(n *et.Node, npu int, refs map[*et.GroupRef]int32) (int32, error) {
	top := s.cfg.Topology
	var layout int32
	if n.Group != nil && len(n.Group.Spans) > 0 {
		id, ok := refs[n.Group]
		if !ok {
			spans := make([]collective.Span, len(n.Group.Spans))
			for i, sp := range n.Group.Spans {
				spans[i] = collective.Span{Phys: sp.Phys, K: sp.K, Stride: sp.Stride}
			}
			grp, err := collective.NewSpanGroup(top, spans, npu)
			if err != nil {
				return 0, fmt.Errorf("core: npu %d node %d: %w", npu, n.ID, err)
			}
			id = s.intern(grp.Spans)
			refs[n.Group] = id
		}
		layout = id
	}
	if !s.fusedInSwitch(n) {
		size := collective.Group{Spans: s.layouts[layout]}.Size()
		op := mapCollective(n.Collective)
		if collective.InitialShard(op, units.ByteSize(n.CommBytes), size) <= 0 {
			return 0, fmt.Errorf("core: npu %d node %d: %v of %d bytes over %d members leaves an empty shard",
				npu, n.ID, op, n.CommBytes, size)
		}
	}
	key := 2 * layout
	if n.InSwitch {
		key++
	}
	return key, nil
}

// intern returns the index of the layout equal to spans, adding it if new.
func (s *Simulator) intern(spans []collective.Span) int32 {
	for i, l := range s.layouts {
		if slices.Equal(l, spans) {
			return int32(i)
		}
	}
	s.layouts = append(s.layouts, spans)
	return int32(len(s.layouts) - 1)
}

// fusedInSwitch reports whether a collective node runs fused in the
// memory fabric instead of on the collective engine.
func (s *Simulator) fusedInSwitch(n *et.Node) bool {
	return n.InSwitch && s.cfg.Memory.HasPool && s.cfg.Memory.Pool.SupportsInSwitchCollectives()
}

// StartTime returns the simulated time the trace was released.
func (s *Simulator) StartTime() units.Time { return s.startAt }

// FinishTime returns the simulated time the last node completed; valid
// once Done reports true.
func (s *Simulator) FinishTime() units.Time { return s.finished }

// Done reports whether every node of the trace has completed.
func (s *Simulator) Done() bool { return s.npus != nil && s.remaining == 0 }

// Finalize collects the run statistics after the engine has drained. The
// Makespan is the span from the trace's release to its last node's
// completion; on a shared engine, Events counts every event the engine
// fired, across all simulators driving it.
func (s *Simulator) Finalize() (*RunStats, error) {
	if s.npus == nil {
		return nil, fmt.Errorf("core: Finalize before Start")
	}
	if s.copies > 1 && (s.diverged || s.coll.Diverged()) {
		return s.rerunFull()
	}
	if s.remaining > 0 {
		return nil, fmt.Errorf("core: simulation deadlocked with %d nodes pending (unmatched P2P or incomplete collective rendezvous); first stuck: %s",
			s.remaining, s.describeStuck())
	}

	n := s.cfg.Topology.NumNPUs()
	makespan := s.finished - s.startAt
	stats := &RunStats{
		Makespan:    makespan,
		PerNPU:      make([]Breakdown, n),
		Collectives: s.collLog,
		Events:      s.eng.Fired(),
	}
	for i, st := range s.npus {
		st.touch(s.finished)
		st.breakdown.Idle += s.finished - st.lastTouch
		st.lastTouch = s.finished
		stats.PerNPU[i] = st.breakdown
		if s.cfg.RecordTimeline {
			stats.Timeline = append(stats.Timeline, st.timeline...)
		}
	}
	for i := len(s.npus); i < n; i++ {
		stats.PerNPU[i] = stats.PerNPU[0]
	}
	total := s.net.Stats().EndpointBytesPerDim
	stats.TrafficPerDim = make([]units.ByteSize, len(total))
	for d, bytes := range total {
		stats.TrafficPerDim[d] = bytes / units.ByteSize(n)
	}
	return stats, nil
}

// rerunFull re-simulates a voided collapsed run per rank on a private
// engine. The shared engine's event count stands: it does not depend on
// the timing.
func (s *Simulator) rerunFull() (*RunStats, error) {
	full, err := NewSimulator(s.cfg)
	if err != nil {
		return nil, err
	}
	full.forceFull = true
	if err := full.Start(s.trace, s.startAt); err != nil {
		return nil, err
	}
	if _, err := full.eng.Run(); err != nil {
		return nil, err
	}
	stats, err := full.Finalize()
	if err == nil {
		s.finished, stats.Events = full.finished, s.eng.Fired()
	}
	return stats, err
}

// settled records a completion now in a collapsed run. Per rank, a
// collective's completion reaches its blocks one by one, so ranks of
// different blocks may order it differently against a tied completion:
// that voids the collapse.
func (s *Simulator) settled(collective bool) {
	now := s.eng.Now()
	s.diverged = s.diverged || s.doneAt == now && (collective || s.collDoneAt == now)
	s.doneAt = now
	if collective {
		s.collDoneAt = now
	}
}

// describeStuck names the first stuck node, lowest rank first and then in
// node-list order. It prefers an issued-but-unfinished node (e.g. a receive
// whose sender never arrived, or a collective missing members) over a node
// that was never ready.
func (s *Simulator) describeStuck() string {
	for _, st := range s.npus {
		for i, v := range st.state {
			if v == nodeIssued {
				n := st.tmpl.nodes[i]
				return fmt.Sprintf("npu %d node %d (%s %s, in flight)", st.rank, n.ID, n.Kind, n.Name)
			}
		}
	}
	for _, st := range s.npus {
		for i, v := range st.state {
			if v > 0 {
				n := st.tmpl.nodes[i]
				return fmt.Sprintf("npu %d node %d (%s %s, %d deps unmet)", st.rank, n.ID, n.Kind, n.Name, v)
			}
		}
	}
	return "unknown"
}

// touch accumulates the attribution interval since the last state change.
// Precedence: compute > comm > remote memory > local memory > idle.
func (st *npuState) touch(now units.Time) {
	dt := now - st.lastTouch
	if dt <= 0 {
		st.lastTouch = now
		return
	}
	var act Activity
	switch {
	case st.nCompute > 0:
		st.breakdown.Compute += dt
		act = ActCompute
	case st.nComm > 0:
		st.breakdown.ExposedComm += dt
		act = ActComm
	case st.nRemote > 0:
		st.breakdown.ExposedRemoteMem += dt
		act = ActRemoteMem
	case st.nLocal > 0:
		st.breakdown.ExposedLocalMem += dt
		act = ActLocalMem
	default:
		st.breakdown.Idle += dt
		act = ActIdle
	}
	if st.recording && act != ActIdle {
		if n := len(st.timeline); n > 0 && st.timeline[n-1].Activity == act && st.timeline[n-1].End == st.lastTouch {
			st.timeline[n-1].End = now
		} else {
			st.timeline = append(st.timeline, Interval{
				NPU: st.rank, Activity: act, Start: st.lastTouch, End: now,
			})
		}
	}
	st.lastTouch = now
}

// issue dispatches a ready node to its layer.
func (s *Simulator) issue(st *npuState, i int32) {
	st.state[i] = nodeIssued
	n := st.tmpl.nodes[i]
	switch n.Kind {
	case et.KindCompute:
		dur := s.cfg.Compute.OpTime(n.FLOPs, units.ByteSize(n.MemBytes))
		if s.straggle.Active() {
			dur = s.straggle.Scale(st.rank, dur)
		}
		s.runTimed(st, i, dur, &st.nCompute)
	case et.KindMemory:
		loc := memory.Local
		counter := &st.nLocal
		if n.MemLocation == et.MemRemote {
			loc = memory.Remote
			counter = &st.nRemote
		}
		kind := memory.LoadAccess
		if n.MemOp == et.MemStore {
			kind = memory.StoreAccess
		}
		dur := s.cfg.Memory.AccessTime(loc, kind, units.ByteSize(n.TensorBytes))
		if loc == memory.Remote && s.cfg.RemoteArbiter != nil {
			s.runRemote(st, i, dur, counter)
			return
		}
		s.runTimed(st, i, dur, counter)
	case et.KindComm:
		s.issueCollective(st, i)
	case et.KindSend:
		s.markBusy(st, &st.nComm)
		s.net.SimSend(st.rank, n.Peer, n.Tag, units.ByteSize(n.CommBytes), func() {
			s.markFree(st, &st.nComm)
			s.complete(st, i)
		})
	case et.KindRecv:
		// A receive is pure synchronization: the message's wire time is
		// attributed to the sender's link, and waiting for a peer that has
		// not sent yet is idle time (this is what makes pipeline bubbles
		// visible in the breakdown).
		s.net.SimRecv(n.Peer, st.rank, n.Tag, units.ByteSize(n.CommBytes), func(network.Message) {
			st.touch(s.eng.Now())
			s.complete(st, i)
		})
	default:
		panic(fmt.Sprintf("core: unknown node kind %q", n.Kind))
	}
}

// runTimed executes a node with a fixed duration under an activity counter.
func (s *Simulator) runTimed(st *npuState, i int32, dur units.Time, counter *int) {
	s.markBusy(st, counter)
	s.eng.Schedule(dur, func() {
		s.eng.Represent(uint64(s.copies - 1))
		s.settled(false)
		s.markFree(st, counter)
		s.complete(st, i)
	})
}

// runRemote executes a remote-memory node under the cross-job pool
// arbiter: the access duration is stretched by the contention factor at
// issue time and the arbiter is released on completion.
func (s *Simulator) runRemote(st *npuState, i int32, dur units.Time, counter *int) {
	if f := s.cfg.RemoteArbiter.RemoteStarted(); f > 1 {
		dur = units.Time(float64(dur) * f)
	}
	s.markBusy(st, counter)
	s.eng.Schedule(dur, func() {
		s.cfg.RemoteArbiter.RemoteFinished()
		s.markFree(st, counter)
		s.complete(st, i)
	})
}

func (s *Simulator) markBusy(st *npuState, counter *int) {
	st.touch(s.eng.Now())
	*counter++
}

func (s *Simulator) markFree(st *npuState, counter *int) {
	st.touch(s.eng.Now())
	*counter--
}

// issueCollective implements the rendezvous protocol and launches the
// collective when the last member arrives. In a collapsed run every member
// arrives when rank 0 does.
func (s *Simulator) issueCollective(st *npuState, i int32) {
	key := st.tmpl.commKey[i]
	group := collective.Group{Spans: s.layouts[key/2], Base: st.rank}
	s.markBusy(st, &st.nComm) // waiting for peers counts as communication
	if s.copies > 1 {
		s.launchCollective(&pendingCollective{group: group, members: []int{st.rank}, nodes: []int32{i}}, st.tmpl.nodes[i])
		return
	}
	seq := st.collSeq[key]
	st.collSeq[key]++

	rk := rendezvousKey{key: key, origin: group.Origin(s.cfg.Topology), seq: seq}
	p := s.rendezvous[rk]
	if p == nil {
		members := group.Members(s.cfg.Topology)
		p = &pendingCollective{
			group:   group,
			members: members,
			nodes:   make([]int32, len(members)),
		}
		s.rendezvous[rk] = p
	}
	p.nodes[sort.SearchInts(p.members, st.rank)] = i
	p.arrived++
	if p.arrived < len(p.members) {
		return
	}
	delete(s.rendezvous, rk)
	s.launchCollective(p, st.tmpl.nodes[i])
}

// launchCollective runs a collective whose members have all arrived; in a
// collapsed run, one per block of its layout.
func (s *Simulator) launchCollective(p *pendingCollective, n *et.Node) {
	copies, start := 1, s.coll.Start
	if s.copies > 1 {
		copies, start = s.copies/p.group.Size(), s.coll.StartRepresentative
	}
	finish := func(res collective.Result, ok bool) {
		s.settled(true)
		for pos, rank := range p.members {
			member := s.npus[rank]
			s.markFree(member, &member.nComm)
			s.complete(member, p.nodes[pos])
		}
		for c := 0; ok && c < copies && len(s.collLog) < s.cfg.CollectiveLogLimit; c++ {
			s.collLog = append(s.collLog, res) // copies share TrafficPerDim
		}
	}

	if s.fusedInSwitch(n) {
		// Fused in-switch collective through the memory fabric: all
		// members complete together after the pipelined fabric time. The
		// pool model's W is the per-GPU pre-gather shard, so an
		// All-Gather whose members each end with CommBytes contributes
		// CommBytes/|group| per GPU (and symmetrically for the
		// reduce-on-store direction). |group| is the layout's size, not
		// the members present: a collapsed run brings rank 0 alone.
		shard := units.ByteSize(n.CommBytes) / units.ByteSize(p.group.Size())
		if shard < 1 {
			shard = 1
		}
		dur := s.cfg.Memory.Pool.InSwitchCollectiveTime(shard)
		arb := s.cfg.RemoteArbiter
		if arb != nil {
			// In-switch collectives stream through the shared pool fabric,
			// so they contend like any other remote access.
			if f := arb.RemoteStarted(); f > 1 {
				dur = units.Time(float64(dur) * f)
			}
		}
		start := s.eng.Now()
		s.eng.Schedule(dur, func() {
			s.eng.Represent(uint64(copies - 1))
			if arb != nil {
				arb.RemoteFinished()
			}
			finish(collective.Result{
				Op:    mapCollective(n.Collective),
				Size:  units.ByteSize(n.CommBytes),
				Start: start,
				End:   s.eng.Now(),
			}, true)
		})
		return
	}

	op := mapCollective(n.Collective)
	err := start(op, units.ByteSize(n.CommBytes), p.group, func(res collective.Result) {
		finish(res, true)
	})
	if err != nil {
		// Start checked every collective node against its group.
		panic(fmt.Sprintf("core: collective launch failed: %v", err))
	}
}

func mapCollective(c et.CollectiveType) collective.Op {
	switch c {
	case et.CollAllReduce:
		return collective.AllReduce
	case et.CollAllGather:
		return collective.AllGather
	case et.CollReduceScatter:
		return collective.ReduceScatter
	case et.CollAllToAll:
		return collective.AllToAll
	default:
		panic(fmt.Sprintf("core: unknown collective %q", c))
	}
}

// complete finishes a node and unlocks its children.
func (s *Simulator) complete(st *npuState, i int32) {
	st.state[i] = nodeDone
	s.remaining--
	if s.remaining == 0 {
		s.finished = s.eng.Now()
	}
	for _, c := range st.tmpl.children[i] {
		st.state[c]--
		if st.state[c] == 0 {
			s.issue(st, c)
		}
	}
}
