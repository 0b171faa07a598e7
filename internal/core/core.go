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
package core

import (
	"fmt"
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
	// Events is the number of discrete events executed.
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
	collSeq    map[collSeqKey]int

	// groups holds each trace communicator's validated spans, resolved
	// once in Start; fullSpans serves nodes without a GroupRef (the whole
	// machine).
	groups    map[*et.GroupRef][]collective.Span
	fullSpans []collective.Span

	collLog   []collective.Result
	remaining int

	// straggle holds per-NPU compute-time multipliers set by scenario
	// events; the zero value means no stragglers.
	straggle compute.ScaleTable

	// startAt is the simulated time the trace was released (job arrival);
	// finished is when its last node completed.
	startAt  units.Time
	finished units.Time
}

type npuState struct {
	rank      int
	indeg     map[int]int
	children  map[int][]*et.Node
	nodes     map[int]*et.Node
	completed map[int]bool
	pending   int

	// Activity counters for exposed-time attribution.
	nCompute, nComm, nRemote, nLocal int
	lastTouch                        units.Time
	breakdown                        Breakdown

	// timeline accumulates attributed intervals when recording is on;
	// contiguous same-activity intervals are merged as they are appended.
	timeline  []Interval
	recording bool
}

type rendezvousKey struct {
	sig string
	seq int
}

type collSeqKey struct {
	rank int
	sig  string
}

type pendingCollective struct {
	group   collective.Group
	members []int
	arrived int
	nodes   map[int]*et.Node // rank -> node to complete
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
		collective.WithChunks(cfg.Chunks))
	return &Simulator{
		cfg:        cfg,
		eng:        eng,
		net:        net,
		coll:       coll,
		rendezvous: make(map[rendezvousKey]*pendingCollective),
		collSeq:    make(map[collSeqKey]int),
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
	if err := s.resolveGroups(trace); err != nil {
		return err
	}
	s.startAt = at

	s.npus = make([]*npuState, trace.NumNPUs)
	graphs := make([]*et.Graph, trace.NumNPUs)
	for _, g := range trace.Graphs {
		graphs[g.NPU] = g
	}
	for rank, g := range graphs {
		st := &npuState{
			rank:      rank,
			indeg:     make(map[int]int, len(g.Nodes)),
			children:  make(map[int][]*et.Node, len(g.Nodes)),
			nodes:     make(map[int]*et.Node, len(g.Nodes)),
			completed: make(map[int]bool, len(g.Nodes)),
			pending:   len(g.Nodes),
			lastTouch: at,
			recording: s.cfg.RecordTimeline,
		}
		for _, n := range g.Nodes {
			st.nodes[n.ID] = n
			st.indeg[n.ID] = len(n.Deps)
			for _, d := range n.Deps {
				st.children[d] = append(st.children[d], n)
			}
		}
		s.npus[rank] = st
		s.remaining += st.pending
	}

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
		s.release(graphs)
	} else {
		s.eng.ScheduleAt(at, func() { s.release(graphs) })
	}
	return nil
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

// release issues every initially ready node in ascending-ID order. The
// trace builders assign IDs in insertion order, so for every generated
// (and round-tripped) trace the node list already IS that order and no
// sort runs; externally authored traces with a shuffled node list fall
// back to sorting so their issue order — and therefore their simulated
// output — is independent of list order.
func (s *Simulator) release(graphs []*et.Graph) {
	for rank, g := range graphs {
		st := s.npus[rank]
		ascending := true
		for i := 1; i < len(g.Nodes); i++ {
			if g.Nodes[i].ID < g.Nodes[i-1].ID {
				ascending = false
				break
			}
		}
		if ascending {
			for _, n := range g.Nodes {
				if st.indeg[n.ID] == 0 {
					s.issue(st, n)
				}
			}
			continue
		}
		ids := make([]int, 0, len(g.Nodes))
		for _, n := range g.Nodes {
			if st.indeg[n.ID] == 0 {
				ids = append(ids, n.ID)
			}
		}
		sort.Ints(ids)
		for _, id := range ids {
			s.issue(st, st.nodes[id])
		}
	}
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
	if s.remaining > 0 {
		return nil, fmt.Errorf("core: simulation deadlocked with %d nodes pending (unmatched P2P or incomplete collective rendezvous); first stuck: %s",
			s.remaining, s.describeStuck())
	}

	makespan := s.finished - s.startAt
	stats := &RunStats{
		Makespan:    makespan,
		PerNPU:      make([]Breakdown, len(s.npus)),
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
	netStats := s.net.Stats()
	stats.TrafficPerDim = make([]units.ByteSize, s.cfg.Topology.NumDims())
	n := units.ByteSize(len(s.npus))
	for d := range stats.TrafficPerDim {
		var sum units.ByteSize
		for rank := range s.npus {
			sum += netStats.SentPerNPUDim[rank][d] + netStats.RecvPerNPUDim[rank][d]
		}
		stats.TrafficPerDim[d] = sum / n
	}
	return stats, nil
}

func (s *Simulator) describeStuck() string {
	// Prefer an issued-but-unfinished node (e.g. a receive whose sender
	// never arrived, or a collective missing members) over a node that was
	// never ready.
	for _, st := range s.npus {
		for id, deg := range st.indeg {
			if deg == issuedMark && !st.completed[id] {
				n := st.nodes[id]
				return fmt.Sprintf("npu %d node %d (%s %s, in flight)", st.rank, id, n.Kind, n.Name)
			}
		}
	}
	for _, st := range s.npus {
		for id, deg := range st.indeg {
			if deg > 0 {
				n := st.nodes[id]
				return fmt.Sprintf("npu %d node %d (%s %s, %d deps unmet)", st.rank, id, n.Kind, n.Name, deg)
			}
		}
	}
	return "unknown"
}

// issuedMark flags a node that has been dispatched to its layer.
const issuedMark = -1

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
func (s *Simulator) issue(st *npuState, n *et.Node) {
	st.indeg[n.ID] = issuedMark
	switch n.Kind {
	case et.KindCompute:
		dur := s.cfg.Compute.OpTime(n.FLOPs, units.ByteSize(n.MemBytes))
		if s.straggle.Active() {
			dur = s.straggle.Scale(st.rank, dur)
		}
		s.runTimed(st, n, dur, &st.nCompute)
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
			s.runRemote(st, n, dur, counter)
			return
		}
		s.runTimed(st, n, dur, counter)
	case et.KindComm:
		s.issueCollective(st, n)
	case et.KindSend:
		s.markBusy(st, &st.nComm)
		s.net.SimSend(st.rank, n.Peer, n.Tag, units.ByteSize(n.CommBytes), func() {
			s.markFree(st, &st.nComm)
			s.complete(st, n)
		})
	case et.KindRecv:
		// A receive is pure synchronization: the message's wire time is
		// attributed to the sender's link, and waiting for a peer that has
		// not sent yet is idle time (this is what makes pipeline bubbles
		// visible in the breakdown).
		s.net.SimRecv(n.Peer, st.rank, n.Tag, units.ByteSize(n.CommBytes), func(network.Message) {
			st.touch(s.eng.Now())
			s.complete(st, n)
		})
	default:
		panic(fmt.Sprintf("core: unknown node kind %q", n.Kind))
	}
}

// runTimed executes a node with a fixed duration under an activity counter.
func (s *Simulator) runTimed(st *npuState, n *et.Node, dur units.Time, counter *int) {
	s.markBusy(st, counter)
	s.eng.Schedule(dur, func() {
		s.markFree(st, counter)
		s.complete(st, n)
	})
}

// runRemote executes a remote-memory node under the cross-job pool
// arbiter: the access duration is stretched by the contention factor at
// issue time and the arbiter is released on completion.
func (s *Simulator) runRemote(st *npuState, n *et.Node, dur units.Time, counter *int) {
	if f := s.cfg.RemoteArbiter.RemoteStarted(); f > 1 {
		dur = units.Time(float64(dur) * f)
	}
	s.markBusy(st, counter)
	s.eng.Schedule(dur, func() {
		s.cfg.RemoteArbiter.RemoteFinished()
		s.markFree(st, counter)
		s.complete(st, n)
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
// collective when the last member arrives.
func (s *Simulator) issueCollective(st *npuState, n *et.Node) {
	group := s.group(n, st.rank)
	sig := group.Signature(s.cfg.Topology)
	if n.InSwitch {
		sig = "insw/" + sig
	}
	seqKey := collSeqKey{rank: st.rank, sig: sig}
	seq := s.collSeq[seqKey]
	s.collSeq[seqKey] = seq + 1

	key := rendezvousKey{sig: sig, seq: seq}
	p := s.rendezvous[key]
	if p == nil {
		p = &pendingCollective{
			group:   group,
			members: group.Members(s.cfg.Topology),
			nodes:   make(map[int]*et.Node),
		}
		s.rendezvous[key] = p
	}
	p.nodes[st.rank] = n
	p.arrived++
	s.markBusy(st, &st.nComm) // waiting for peers counts as communication
	if p.arrived < len(p.members) {
		return
	}
	delete(s.rendezvous, key)
	s.launchCollective(p, n)
}

func (s *Simulator) launchCollective(p *pendingCollective, n *et.Node) {
	finish := func(res collective.Result, ok bool) {
		for _, rank := range p.members {
			member := s.npus[rank]
			node := p.nodes[rank]
			s.markFree(member, &member.nComm)
			s.complete(member, node)
		}
		if ok && len(s.collLog) < s.cfg.CollectiveLogLimit {
			s.collLog = append(s.collLog, res)
		}
	}

	if n.InSwitch && s.cfg.Memory.HasPool && s.cfg.Memory.Pool.SupportsInSwitchCollectives() {
		// Fused in-switch collective through the memory fabric: all
		// members complete together after the pipelined fabric time. The
		// pool model's W is the per-GPU pre-gather shard, so an
		// All-Gather whose members each end with CommBytes contributes
		// CommBytes/|group| per GPU (and symmetrically for the
		// reduce-on-store direction).
		shard := units.ByteSize(n.CommBytes) / units.ByteSize(len(p.members))
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
	err := s.coll.Start(op, units.ByteSize(n.CommBytes), p.group, func(res collective.Result) {
		finish(res, true)
	})
	if err != nil {
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

// resolveGroups validates every collective node's communicator against
// the machine before any event fires, so a malformed group span fails
// Start instead of the run. Span validity does not depend on the issuing
// rank (see collective.NewSpanGroup), so each distinct GroupRef is resolved
// once for every rank that issues it, and a node list shared by several
// ranks (symmetric traces) is scanned once.
func (s *Simulator) resolveGroups(trace *et.Trace) error {
	top := s.cfg.Topology
	s.fullSpans = collective.FullMachine(top).Spans
	s.groups = make(map[*et.GroupRef][]collective.Span)
	var scanned []*et.Node
	for _, g := range trace.Graphs {
		if len(g.Nodes) == 0 || (len(g.Nodes) == len(scanned) && &g.Nodes[0] == &scanned[0]) {
			continue
		}
		scanned = g.Nodes
		for _, n := range g.Nodes {
			if n.Kind != et.KindComm || n.Group == nil || len(n.Group.Spans) == 0 {
				continue
			}
			if _, ok := s.groups[n.Group]; ok {
				continue
			}
			spans := make([]collective.Span, len(n.Group.Spans))
			for i, sp := range n.Group.Spans {
				spans[i] = collective.Span{Phys: sp.Phys, K: sp.K, Stride: sp.Stride}
			}
			grp, err := collective.NewSpanGroup(top, spans, g.NPU)
			if err != nil {
				return fmt.Errorf("core: npu %d node %d: %w", g.NPU, n.ID, err)
			}
			s.groups[n.Group] = grp.Spans
		}
	}
	return nil
}

// group returns the communicator group a collective node names, rooted at
// the issuing NPU. Its spans were resolved by resolveGroups.
func (s *Simulator) group(n *et.Node, rank int) collective.Group {
	spans := s.fullSpans
	if n.Group != nil && len(n.Group.Spans) > 0 {
		spans = s.groups[n.Group]
	}
	return collective.Group{Spans: spans, Base: rank}
}

// complete finishes a node and unlocks its children.
func (s *Simulator) complete(st *npuState, n *et.Node) {
	st.completed[n.ID] = true
	st.pending--
	s.remaining--
	if s.remaining == 0 {
		s.finished = s.eng.Now()
	}
	for _, child := range st.children[n.ID] {
		st.indeg[child.ID]--
		if st.indeg[child.ID] == 0 {
			s.issue(st, child)
		}
	}
}
