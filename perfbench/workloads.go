package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	astrasim "repro"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/et"
	"repro/internal/etgen"
	"repro/internal/experiments"
	"repro/internal/memory"
	"repro/internal/sweep"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// workloads maps each benchmark workload to the function doing its
// measured work.
var workloads = map[string]func(r *run, seed int64){
	"gpt3-1k":          runGPT3,
	"dse-loop":         runDSE,
	"cluster-scenario": runCluster,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// simOutput is the deterministic part of one simulated run: what the
// output check compares against the reference.
type simOutput struct {
	MakespanNs  int64     `json:"makespan_ns"`
	Events      uint64    `json:"events"`
	Collectives int       `json:"collectives"`
	TrafficMB   []float64 `json:"traffic_mb"`
	// ExposedNs is the mean per-NPU breakdown: compute, exposed comm,
	// exposed remote memory, exposed local memory, idle.
	ExposedNs [5]int64 `json:"exposed_ns"`
}

func outputOf(rep *astrasim.Report) simOutput {
	return simOutput{
		MakespanNs:  int64(rep.Makespan),
		Events:      rep.Events,
		Collectives: rep.Collectives,
		TrafficMB:   rep.TrafficPerDimMB,
		ExposedNs: [5]int64{int64(rep.Compute), int64(rep.ExposedComm),
			int64(rep.ExposedRemoteMem), int64(rep.ExposedLocalMem), int64(rep.Idle)},
	}
}

// outputOfStats mirrors the facade's Report conversion for runs driven
// through core directly.
func outputOfStats(s *core.RunStats) simOutput {
	ns := func(t units.Time) int64 { return int64(t / units.Nanosecond) }
	mean := s.MeanBreakdown()
	out := simOutput{
		MakespanNs:  ns(s.Makespan),
		Events:      s.Events,
		Collectives: len(s.Collectives),
		ExposedNs: [5]int64{ns(mean.Compute), ns(mean.ExposedComm),
			ns(mean.ExposedRemoteMem), ns(mean.ExposedLocalMem), ns(mean.Idle)},
	}
	for _, b := range s.TrafficPerDim {
		out.TrafficMB = append(out.TrafficMB, float64(b)/1e6)
	}
	return out
}

// coreConfig builds the core configuration astrasim.NewMachine builds for
// a MachineConfig that sets only Topology and BandwidthsGBps (the facade's
// defaults: 500 ns hops, 234 TFLOPS, 2039 GB/s HBM, 1 us local memory,
// baseline scheduler). The output check against facade-made references
// keeps the two in step.
func coreConfig(spec string, gbps []float64) (core.Config, error) {
	top, err := topology.ParseWithBandwidth(spec, gbps, units.FromNanos(500))
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Topology: top,
		Compute:  compute.Model{Peak: units.TFLOPS(234), MemBandwidth: units.GBps(2039)},
		Memory: memory.System{Local: memory.LocalModel{
			Latency: units.FromNanos(1000), Bandwidth: units.GBps(2039)}},
		Policy: collective.Baseline,
	}, nil
}

// fig4MAE is the model's mean absolute error (%) against the repo's
// Fig. 4 reference data (NCCL ring All-Reduce on 4 and 16 GPUs).
func fig4MAE() (float64, error) {
	res, err := experiments.Fig4(experiments.Options{Exec: sweep.Exec{Workers: 1}})
	if err != nil {
		return 0, err
	}
	return res.MeanAbsErrorPct, nil
}

// ---- gpt3-1k ---------------------------------------------------------------

const (
	gptTopology = "R(4)_FC(4)_SW(64)"
	gptRef      = "gpt3-1k"
)

var gptGBps = []float64{200, 100, 50}

// runGPT3 simulates one GPT-3 175B iteration (MP16 x DP64) on 1024 NPUs.
// It drives core directly, with the calls Machine.Run makes, because the
// facade cannot show where set-up ends and the first event fires. It
// attaches no collective memo: this workload's sub-group collectives are
// never eligible for one.
func runGPT3(r *run, _ int64) {
	var (
		trace *et.Trace
		stats *core.RunStats
		err   error
	)
	r.timed(func() {
		t0 := time.Now()
		var cfg core.Config
		var sim *core.Simulator
		eng := timeline.New()
		cfg, err = coreConfig(gptTopology, gptGBps)
		if err == nil {
			r.span("etgen.gen_s", func() { trace, err = etgen.Transformer(cfg.Topology, etgen.GPT3()) })
		}
		if err == nil {
			sim, err = core.NewSimulatorOn(eng, cfg)
		}
		if err == nil {
			r.span("core.start_s", func() { err = sim.Start(trace, 0) })
		}
		r.res.SetupS = time.Since(t0).Seconds()
		if err == nil {
			r.span("core.run_s", func() { _, err = eng.Run() })
		}
		if err == nil {
			r.span("core.finalize_s", func() { stats, err = sim.Finalize() })
		}
	})
	r.res.Sims++
	if !r.attempt(err) {
		return
	}
	r.check(gptRef, outputOfStats(stats))
	r.res.Events = stats.Events
	if r.traced {
		r.span("et.validate_s", func() { _ = trace.Validate() })
		r.set("etgen.nodes", float64(trace.NodeCount()))
		r.set("timeline.events", float64(stats.Events))
		r.set("core.ns_per_event", r.spans["core.run_s"]*1e9/float64(stats.Events))
	}
}

// ---- dse-loop --------------------------------------------------------------

// dseShapes are the candidate topologies of the design-space loop: every
// registered block (R, FC, SW, SW(k,o), T2D, M) at 64, 128 and 256 NPUs.
var dseShapes = []string{
	"R(4)_FC(4)_SW(4)", "R(8)_SW(8)", "FC(8)_SW(8,2)", "T2D(4,4)_SW(4)",
	"M(4)_FC(4)_SW(4)", "R(4)_R(4)_R(4)", "T2D(8,8)", "SW(8)_SW(8)",
	"R(4)_FC(4)_SW(8)", "R(8)_SW(16,2)", "T2D(4,4)_SW(8)", "FC(8)_SW(16)",
	"M(8)_SW(16)", "R(2)_FC(8)_SW(8,4)", "T2D(8,4)_FC(4)", "R(4)_M(4)_SW(8)",
	"R(4)_FC(4)_SW(16)", "R(8)_FC(4)_SW(8,2)", "T2D(4,4)_SW(16,4)", "FC(8)_SW(32)",
	"M(4)_R(4)_SW(16)", "R(16)_SW(16)", "T2D(8,8)_SW(4)", "SW(16)_SW(16,2)",
}

// dseGBps are the bandwidth provisionings (GB/s per dimension, innermost
// first) offered to a shape, by its dimension count.
var dseGBps = map[int][][]float64{
	1: {{400}, {300}, {250}, {200}, {150}, {100}},
	2: {{400, 100}, {300, 150}, {200, 200}, {400, 50}, {250, 100}, {150, 150}},
	3: {{400, 200, 50}, {200, 100, 50}, {300, 150, 100}, {400, 100, 100}, {250, 250, 50}, {200, 200, 100}},
}

// dsePerShape is how many provisionings the seed draws for each shape and
// dseKeep how many of them survive screening, so every seed simulates
// every shape the same number of times.
const (
	dsePerShape = 4
	dseKeep     = 2
)

type candidate struct {
	shape string
	gbps  []float64
}

func (c candidate) key() string {
	bw := make([]string, len(c.gbps))
	for i, g := range c.gbps {
		bw[i] = fmt.Sprint(g)
	}
	return c.shape + "|" + strings.Join(bw, ",")
}

func (c candidate) config() astrasim.MachineConfig {
	return astrasim.MachineConfig{Topology: c.shape, BandwidthsGBps: c.gbps}
}

func dimsOf(shape string) int { return strings.Count(shape, "_") + 1 }

// dseCandidates draws dsePerShape provisionings per shape from the seed.
func dseCandidates(seed int64) [][]candidate {
	rng := rand.New(rand.NewSource(seed))
	groups := make([][]candidate, len(dseShapes))
	for i, s := range dseShapes {
		opts := dseGBps[dimsOf(s)]
		for _, j := range rng.Perm(len(opts))[:dsePerShape] {
			groups[i] = append(groups[i], candidate{s, opts[j]})
		}
	}
	return groups
}

// dseMix is the short workload mix every surviving candidate runs. The
// iterated whole-machine collectives are what the collective memo serves.
var dseMix = []struct {
	name string
	w    func() astrasim.Workload
}{
	{"ar4", func() astrasim.Workload { return astrasim.Iterations(astrasim.Collective("all_reduce", 64<<20), 4) }},
	{"a2a4", func() astrasim.Workload { return astrasim.Iterations(astrasim.Collective("all_to_all", 16<<20), 4) }},
	{"dlrm", astrasim.DLRM},
	{"tf", func() astrasim.Workload { return astrasim.Transformer(1.3e9, 2, 2048, 1024, 1, 2, 4) }},
}

// dseOps are the collectives the closed-form screen estimates, each over
// dseSizes message sizes doubling from 1 KiB to 1 GiB.
var dseOps = []string{"all_reduce", "all_gather", "reduce_scatter", "all_to_all"}

const dseSizes = 21

// dseScreen returns each op's estimated time summed over the size sweep.
func dseScreen(m *astrasim.Machine) ([]int64, error) {
	sums := make([]int64, len(dseOps))
	for i, op := range dseOps {
		for k := 0; k < dseSizes; k++ {
			size := int64(1<<10) << k
			t, err := m.EstimateCollective(op, size)
			if err != nil {
				return nil, err
			}
			sums[i] += int64(t)
		}
	}
	return sums, nil
}

// dseScreens is how many times a run screens the candidates. Screening
// takes milliseconds, so set-up time is the median of several passes; the
// last pass's machines run the mix.
const dseScreens = 5

// dseSurvivor is a screened candidate with its machine and score.
type dseSurvivor struct {
	c     candidate
	m     *astrasim.Machine
	score float64
}

// runDSE is the design-space loop: build and screen every drawn
// candidate, keep the dseKeep best cost-weighted estimates per shape, and
// simulate the mix on the survivors.
func runDSE(r *run, seed int64) {
	var lat []float64
	r.timed(func() {
		var survivors []dseSurvivor
		setups := make([]float64, dseScreens)
		for i := range setups {
			t := time.Now()
			survivors = dseScreenAll(r, seed)
			setups[i] = time.Since(t).Seconds()
		}
		sort.Float64s(setups)
		r.res.SetupS = quantile(setups, 0.5)

		for _, s := range survivors {
			for _, w := range dseMix {
				t := time.Now()
				rep, err := s.m.Run(w.w())
				lat = append(lat, time.Since(t).Seconds()*1e3)
				r.res.Sims++
				if !r.attempt(err) {
					continue
				}
				r.check(s.c.key()+"|"+w.name, outputOf(rep))
				r.res.Events += rep.Events
			}
		}
	})
	if r.traced {
		r.set("collective.estimate_calls", float64(dseScreens*len(dseShapes)*dsePerShape*len(dseOps)*dseSizes))
		r.set("timeline.events", float64(r.res.Events))
		sort.Float64s(lat)
		r.set("dse.run_samples", float64(len(lat)))
		r.set("dse.run_p50_ms", quantile(lat, 0.5))
		r.set("dse.run_p90_ms", quantile(lat, 0.9))
	}
}

// dseScreenAll builds and screens every candidate the seed draws and
// returns the survivors.
func dseScreenAll(r *run, seed int64) []dseSurvivor {
	var survivors []dseSurvivor
	for _, g := range dseCandidates(seed) {
		var screened []dseSurvivor
		for _, c := range g {
			var m *astrasim.Machine
			var err error
			r.span("facade.new_machine_s", func() { m, err = astrasim.NewMachine(c.config()) })
			if !r.attempt(err) {
				continue
			}
			var est []int64
			r.span("collective.estimate_s", func() { est, err = dseScreen(m) })
			if !r.attempt(err) {
				continue
			}
			r.check(c.key()+"|est", est)
			var total int64
			for _, t := range est {
				total += t
			}
			screened = append(screened, dseSurvivor{c, m, float64(total) * m.AggregateBandwidthGBps()})
		}
		sort.SliceStable(screened, func(i, j int) bool { return screened[i].score < screened[j].score })
		survivors = append(survivors, screened[:min(dseKeep, len(screened))]...)
	}
	return survivors
}

// quantile reads the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// ---- cluster-scenario ------------------------------------------------------

const clusterRef = "cluster-scenario"

// clusterSpec is a 1024-NPU oversubscribed fabric with a hierarchical
// disaggregated pool, strided placement, four 256-NPU jobs (two GPT-3, an
// in-switch MoE-1T, a late 4-iteration DLRM) and a scenario with a mid-run
// spine degrade/restore, one straggler and one NPU outage. Strided
// placement uses no randomness, so the seed changes nothing simulated.
func clusterSpec(seed int64) astrasim.ClusterSpec {
	return astrasim.ClusterSpec{
		Name: "cluster-scenario",
		Fabric: astrasim.MachineConfig{
			Topology:       "R(4)_FC(4)_SW(64,4)",
			BandwidthsGBps: []float64{200, 100, 50},
			Memory: &astrasim.MemoryConfig{Pool: &astrasim.PoolConfig{
				Design: "hierarchical", Nodes: 128, GPUsPerNode: 8,
				OutSwitches: 8, RemoteGroups: 16,
				RemoteGroupGBps: 100, GPUSideGBps: 100, InNodeGBps: 256,
			}},
		},
		Placement: "strided",
		Seed:      seed,
		Jobs: []astrasim.ClusterJobSpec{
			{Name: "gpt3", NPUs: 256, Count: 2, Workload: astrasim.WorkloadSpec{Kind: "gpt3"}},
			{Name: "moe", NPUs: 256, Workload: astrasim.WorkloadSpec{Kind: "moe_inswitch"}},
			{Name: "dlrm", NPUs: 256, ArrivalUs: 400_000, Workload: astrasim.WorkloadSpec{Kind: "dlrm", Iterations: 4}},
		},
		Scenario: []astrasim.ScenarioEventSpec{
			{AtUs: 0, Kind: "straggle_npu", NPU: 5, Factor: 1.3},
			{AtUs: 300_000, Kind: "degrade_link", Dim: 2, Factor: 0.25},
			{AtUs: 600_000, Kind: "fail_npu", NPU: 700, RecoveryUs: 100_000},
			{AtUs: 900_000, Kind: "restore_link", Dim: 2},
		},
	}
}

// clusterOutput is the deterministic part of a cluster result.
type clusterOutput struct {
	MakespanNs int64        `json:"makespan_ns"`
	Events     uint64       `json:"events"`
	Jobs       []clusterJob `json:"jobs"`
}

type clusterJob struct {
	Job       string    `json:"job"`
	Local     string    `json:"local"`
	FirstRank int       `json:"first_rank"`
	ArrivalNs int64     `json:"arrival_ns"`
	FinishNs  int64     `json:"finish_ns"`
	Report    simOutput `json:"report"`
}

func clusterOutputOf(res *astrasim.ClusterResult) (clusterOutput, []float64) {
	out := clusterOutput{MakespanNs: int64(res.Makespan), Events: res.Events}
	var slow []float64
	for _, j := range res.Jobs {
		out.Jobs = append(out.Jobs, clusterJob{
			Job: j.Job, Local: j.Local, FirstRank: j.FirstRank,
			ArrivalNs: int64(j.Arrival), FinishNs: int64(j.Finish),
			Report: outputOf(j.Report),
		})
		slow = append(slow, j.Slowdown)
	}
	return out, slow
}

// clusterTrace generates a cluster job's trace the way the facade's
// WorkloadSpec kinds do.
func clusterTrace(kind string, iterations int) cluster.TraceFunc {
	return func(top *topology.Topology) (*et.Trace, error) {
		var tr *et.Trace
		var err error
		switch kind {
		case "gpt3":
			tr, err = etgen.Transformer(top, etgen.GPT3())
		case "moe_inswitch":
			tr, err = etgen.MoETrace(top, etgen.MoE1T(true))
		case "dlrm":
			tr, err = etgen.DLRMTrace(top, etgen.DLRM())
		default:
			return nil, fmt.Errorf("no generator for %q", kind)
		}
		if err != nil || iterations <= 1 {
			return tr, err
		}
		return et.Repeat(tr, iterations)
	}
}

// clusterSetup measures the cluster's set-up as the work before its first
// simulated event: carve the fabric, then generate and start every job's
// trace. RunCluster does this internally and cannot be split, so the
// benchmark repeats it on the internal packages and discards the result.
func clusterSetup(r *run, spec astrasim.ClusterSpec) error {
	fabric, err := coreConfig(spec.Fabric.Topology, spec.Fabric.BandwidthsGBps)
	if err != nil {
		return err
	}
	var jobs []cluster.JobConfig
	for _, js := range spec.Jobs {
		for c := 0; c < max(js.Count, 1); c++ {
			jobs = append(jobs, cluster.JobConfig{
				Name: js.Name, NPUs: js.NPUs, Arrival: units.FromMicros(js.ArrivalUs),
				Trace: clusterTrace(js.Workload.Kind, js.Workload.Iterations),
			})
		}
	}
	placement, err := cluster.ParsePlacement(spec.Placement)
	if err != nil {
		return err
	}
	layout, err := cluster.Plan(fabric.Topology, jobs, placement, spec.Seed)
	if err != nil {
		return err
	}
	eng := timeline.New()
	var traces []*et.Trace
	for j, job := range jobs {
		cfg := fabric
		cfg.Topology = layout.Jobs[j].Local
		sim, err := core.NewSimulatorOn(eng, cfg)
		if err != nil {
			return err
		}
		var tr *et.Trace
		r.span("etgen.gen_s", func() { tr, err = job.Trace(cfg.Topology) })
		if err != nil {
			return err
		}
		r.span("core.start_s", func() { err = sim.Start(tr, job.Arrival) })
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	if r.traced {
		nodes := 0
		for _, tr := range traces {
			nodes += tr.NodeCount()
		}
		r.set("etgen.nodes", float64(nodes))
		r.span("et.validate_s", func() {
			for _, tr := range traces {
				_ = tr.Validate()
			}
		})
	}
	return nil
}

// runCluster co-simulates the cluster with isolated baselines through
// RunCluster. A traced run makes the same simulations as separate calls —
// the shared-fabric run, then one isolated run per distinct job — to time
// them apart.
func runCluster(r *run, seed int64) {
	spec := clusterSpec(seed)
	t := time.Now()
	err := clusterSetup(r, spec)
	r.res.SetupS = time.Since(t).Seconds()
	if err != nil {
		r.attempt(fmt.Errorf("cluster set-up: %w", err))
		return
	}

	var res *astrasim.ClusterResult
	var slow []float64
	r.timed(func() {
		if !r.traced {
			res, err = astrasim.RunCluster(spec, astrasim.ClusterOptions{Slowdowns: true})
			r.res.Sims += 1 + len(spec.Jobs)
			if err == nil {
				_, slow = clusterOutputOf(res)
			}
			return
		}
		r.span("cluster.run_s", func() { res, err = astrasim.RunCluster(spec, astrasim.ClusterOptions{}) })
		r.res.Sims++
		iso := map[string]time.Duration{}
		for _, js := range spec.Jobs {
			solo := astrasim.ClusterSpec{Fabric: spec.Fabric, Seed: spec.Seed,
				Jobs: []astrasim.ClusterJobSpec{{Name: js.Name, NPUs: js.NPUs, Workload: js.Workload}}}
			var b *astrasim.ClusterResult
			var berr error
			r.span("cluster.baseline_s", func() { b, berr = astrasim.RunCluster(solo, astrasim.ClusterOptions{}) })
			r.res.Sims++
			if berr != nil {
				err = berr
				break
			}
			iso[js.Name] = b.Jobs[0].Report.Makespan
		}
		if err == nil {
			for _, j := range res.Jobs {
				name := strings.SplitN(j.Job, "#", 2)[0]
				slow = append(slow, float64(j.Report.Makespan)/float64(iso[name]))
			}
		}
	})
	if err != nil {
		r.attempt(err)
		return
	}
	out, _ := clusterOutputOf(res)
	for range out.Jobs {
		r.attempt(nil)
	}
	r.check(clusterRef, out)
	r.check(clusterRef+"|slowdown", slow)
	r.res.Events = res.Events
	r.set("timeline.events", float64(res.Events))
}
