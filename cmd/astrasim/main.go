// Command astrasim runs one simulation: a machine described by a JSON
// config (or quick flags) executing a built-in workload or an execution
// trace file, printing the runtime report.
//
// Examples:
//
//	astrasim -topology "R(2)_FC(8)_R(8)_SW(4)" -bw 250,200,100,50 \
//	         -workload all_reduce -size 1073741824 -scheduler themis
//
//	astrasim -config machine.json -workload gpt3
//
//	astrasim -topology "R(4)" -bw 300 -trace trace.json
//
// With -sweep it instead runs a declarative machine x workload grid on
// the parallel sweep engine (results are byte-identical for any
// -parallel value; duplicate cells simulate once):
//
//	astrasim -sweep grid.json -parallel 8 -json
//
// where grid.json looks like
//
//	{
//	  "name": "bw-scan",
//	  "machines": [
//	    {"name": "conv-4d", "config": {"Topology": "R(2)_FC(8)_R(8)_SW(4)",
//	                                   "BandwidthsGBps": [250, 200, 100, 50]}}
//	  ],
//	  "workloads": [{"kind": "all_reduce", "size_bytes": 1073741824},
//	                {"kind": "gpt3"}]
//	}
//
// With -optimize it runs a budgeted multi-fidelity design-space search: a
// declarative candidate space (explicit machines and/or a topologies x
// bandwidths cross product) is screened with the closed-form collective
// estimator and only strategy-promoted survivors run the full event
// engine. Same determinism guarantee: a fixed seed gives an identical
// winner and history at any -parallel value.
//
//	astrasim -optimize space.json -parallel 8
//
// where space.json looks like
//
//	{
//	  "name": "fabric-hunt",
//	  "strategy": "halving",
//	  "topologies": ["T2D(16,32)", "R(16)_R(32)", "SW(16)_SW(32,2)"],
//	  "bandwidths": [[500], [250, 250]],
//	  "workloads": [{"kind": "gpt3"}]
//	}
//
// With -cluster it co-simulates N training jobs space-sharing one fabric
// and memory pool on a single timeline, with fair-sharing arbitration on
// the levels jobs co-reside on, and reports per-job slowdown vs. the
// isolated run:
//
//	astrasim -cluster jobs.json
//
// where jobs.json looks like
//
//	{
//	  "name": "tenants",
//	  "fabric": {"Topology": "SW(8)_SW(16,4)", "BandwidthsGBps": [250, 250]},
//	  "placement": "packed",
//	  "jobs": [
//	    {"name": "gpt", "npus": 16, "count": 4, "workload": {"kind": "gpt3"}},
//	    {"name": "ads", "npus": 32, "workload": {"kind": "dlrm"}}
//	  ]
//	}
//
// With -scenario it runs a resilience experiment: the spec's workload is
// simulated clean and again under a schedule of timed infrastructure
// perturbations — link bandwidth degradations and restorations, link and
// NPU failures, compute stragglers — and the report shows the perturbed
// run next to the clean baseline with the headline slowdown:
//
//	astrasim -scenario outage.json
//
// where outage.json looks like
//
//	{
//	  "name": "spine-brownout",
//	  "machine": {"Topology": "T2D(4,4)_SW(8,4)", "BandwidthsGBps": [500, 250]},
//	  "workload": {"kind": "dlrm"},
//	  "events": [
//	    {"kind": "degrade_link", "at_us": 500, "dim": 1, "factor": 0.25},
//	    {"kind": "restore_link", "at_us": 3000, "dim": 1},
//	    {"kind": "fail_npu", "at_us": 1000, "npu": 17, "recovery_us": 250},
//	    {"kind": "straggle_npu", "npu": 5, "factor": 1.3}
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/prof"
)

func main() {
	var (
		configPath = flag.String("config", "", "machine config JSON file (astrasim.MachineConfig)")
		topo       = flag.String("topology", "", "topology shape, e.g. R(2)_FC(8)_R(8)_SW(4), T2D(4,4)_SW(8,2); registered blocks: "+strings.Join(astrasim.RegisteredBlocks(), ", "))
		bw         = flag.String("bw", "", "per-dimension bandwidths in GB/s, comma separated")
		scheduler  = flag.String("scheduler", "", "collective scheduler: baseline or themis (default: config file or baseline)")
		tflops     = flag.Float64("tflops", 0, "NPU peak TFLOPS (default: config file or 234)")
		workload   = flag.String("workload", "all_reduce", "workload: all_reduce|all_gather|reduce_scatter|all_to_all|gpt3|t1t|dlrm|moe|pipeline")
		size       = flag.Int64("size", 1<<30, "collective size in bytes (collective workloads)")
		tracePath  = flag.String("trace", "", "run an ASTRA-sim ET JSON file instead of a built-in workload")
		pytorch    = flag.Bool("pytorch", false, "treat -trace as a PARAM-style PyTorch execution graph")
		jsonOut    = flag.Bool("json", false, "print the report (or sweep result) as JSON")
		timeline   = flag.String("timeline", "", "write a Chrome-trace timeline (chrome://tracing) to this file")
		sweepPath  = flag.String("sweep", "", "run a machine x workload sweep grid from this JSON spec instead of a single simulation")
		optPath    = flag.String("optimize", "", "run a budgeted design-space search from this JSON spec (astrasim.SearchSpec; strategies: "+strings.Join(astrasim.SearchStrategies(), ", ")+")")
		clusPath   = flag.String("cluster", "", "co-simulate multiple training jobs sharing one fabric from this JSON spec (astrasim.ClusterSpec; placements: "+strings.Join(astrasim.ClusterPlacements(), ", ")+")")
		scenPath   = flag.String("scenario", "", "run a failure/straggler scenario from this JSON spec (astrasim.ScenarioSpec) and report slowdown vs the clean run")
		baselines  = flag.Bool("slowdowns", true, "with -cluster, also run isolated baselines and report per-job slowdowns")
		parallel   = flag.Int("parallel", 0, "sweep/search worker count; 0 = all cores (results identical for any value)")
		csvOut     = flag.Bool("csv", false, "print the sweep or search result as CSV")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write a heap allocation profile to this file at exit")
	)
	flag.Parse()

	if err := prof.Start(*cpuprofile, *memprofile); err != nil {
		fatal(err)
	}
	defer prof.Stop()

	if *sweepPath != "" {
		if err := runSweep(*sweepPath, *parallel, *jsonOut, *csvOut); err != nil {
			fatal(err)
		}
		return
	}
	if *optPath != "" {
		if err := runOptimize(*optPath, *parallel, *jsonOut, *csvOut); err != nil {
			fatal(err)
		}
		return
	}
	if *clusPath != "" {
		if err := runCluster(*clusPath, *baselines, *jsonOut, *csvOut); err != nil {
			fatal(err)
		}
		return
	}
	if *scenPath != "" {
		if err := runScenario(*scenPath, *jsonOut, *csvOut); err != nil {
			fatal(err)
		}
		return
	}

	cfg, err := machineConfig(*configPath, *topo, *bw, *scheduler, *tflops)
	if err != nil {
		fatal(err)
	}
	m, err := astrasim.NewMachine(cfg)
	if err != nil {
		fatal(err)
	}

	w, err := pickWorkload(*workload, *size, *tracePath, *pytorch)
	if err != nil {
		fatal(err)
	}
	var rep *astrasim.Report
	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rep, err = m.RunWithTimeline(w, f)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "timeline written to %s\n", *timeline)
	} else {
		rep, err = m.Run(w)
		if err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	printReport(m, rep)
}

func machineConfig(path, topo, bw, scheduler string, tflops float64) (astrasim.MachineConfig, error) {
	var cfg astrasim.MachineConfig
	if path != "" {
		data, err := os.ReadFile(path)
		if err != nil {
			return cfg, err
		}
		if err := json.Unmarshal(data, &cfg); err != nil {
			return cfg, fmt.Errorf("parse %s: %w", path, err)
		}
	}
	if topo != "" {
		cfg.Topology = topo
	}
	if bw != "" {
		parts := strings.Split(bw, ",")
		cfg.BandwidthsGBps = nil
		for _, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return cfg, fmt.Errorf("bad bandwidth %q: %w", p, err)
			}
			cfg.BandwidthsGBps = append(cfg.BandwidthsGBps, v)
		}
	}
	// Flags override the config file only when explicitly set; zero
	// values fall back to the file's settings (and then to the library
	// defaults).
	if scheduler != "" {
		cfg.Scheduler = scheduler
	}
	if tflops != 0 {
		cfg.PeakTFLOPS = tflops
	}
	if cfg.Topology == "" {
		return cfg, fmt.Errorf("no topology: pass -topology or -config")
	}
	return cfg, nil
}

func runSweep(path string, workers int, jsonOut, csvOut bool) error {
	res, err := astrasim.RunSweepFile(path, astrasim.SweepOptions{
		Workers:  workers,
		Progress: astrasim.ProgressLine(os.Stderr),
	})
	if err != nil {
		return err
	}
	switch {
	case jsonOut:
		return res.WriteJSON(os.Stdout)
	case csvOut:
		return res.WriteCSV(os.Stdout)
	default:
		return res.WriteTable(os.Stdout)
	}
}

func runOptimize(path string, workers int, jsonOut, csvOut bool) error {
	// The search-wide total grows as the strategy commits to new rungs,
	// so done == total mid-run does not mean finished; the in-place
	// counter line is only terminated once the search returns.
	progressed := false
	res, err := astrasim.RunSearchFile(path, astrasim.SearchOptions{
		Workers: workers,
		Progress: func(done, total int) {
			progressed = true
			fmt.Fprintf(os.Stderr, "\rsearch: %d/%d evaluations", done, total)
		},
	})
	if progressed {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}
	switch {
	case jsonOut:
		return res.WriteJSON(os.Stdout)
	case csvOut:
		return res.WriteCSV(os.Stdout)
	default:
		return res.WriteTable(os.Stdout)
	}
}

func runCluster(path string, slowdowns, jsonOut, csvOut bool) error {
	res, err := astrasim.RunClusterFile(path, astrasim.ClusterOptions{Slowdowns: slowdowns})
	if err != nil {
		return err
	}
	switch {
	case jsonOut:
		return res.WriteJSON(os.Stdout)
	case csvOut:
		return res.WriteCSV(os.Stdout)
	default:
		return res.WriteTable(os.Stdout)
	}
}

func runScenario(path string, jsonOut, csvOut bool) error {
	res, err := astrasim.RunScenarioFile(path)
	if err != nil {
		return err
	}
	switch {
	case jsonOut:
		return res.WriteJSON(os.Stdout)
	case csvOut:
		return res.WriteCSV(os.Stdout)
	default:
		return res.WriteTable(os.Stdout)
	}
}

// pickWorkload maps the single-run flags onto a declarative WorkloadSpec —
// the same path sweep grids use.
func pickWorkload(name string, size int64, tracePath string, pytorch bool) (astrasim.Workload, error) {
	spec := astrasim.WorkloadSpec{Kind: name, SizeBytes: size}
	if tracePath != "" {
		spec = astrasim.WorkloadSpec{Kind: "trace", Path: tracePath}
		if pytorch {
			spec.Kind = "pytorch_trace"
		}
	} else if name == "pipeline" {
		spec = astrasim.WorkloadSpec{
			Kind: "pipeline", Stages: 4, MicroBatches: 8, FlopsPerStage: 1e12,
			ActivationBytes: 16 << 20, GradBytes: 64 << 20,
		}
	}
	return spec.Workload()
}

func printReport(m *astrasim.Machine, rep *astrasim.Report) {
	fmt.Printf("machine:   %s (%d NPUs, %.0f GB/s per NPU)\n",
		m.TopologySpec(), m.NumNPUs(), m.AggregateBandwidthGBps())
	fmt.Printf("workload:  %s\n", rep.Workload)
	fmt.Printf("makespan:  %v\n", rep.Makespan)
	fmt.Printf("breakdown (mean per NPU):\n")
	fmt.Printf("  compute:            %v\n", rep.Compute)
	fmt.Printf("  exposed comm:       %v\n", rep.ExposedComm)
	fmt.Printf("  exposed remote mem: %v\n", rep.ExposedRemoteMem)
	fmt.Printf("  exposed local mem:  %v\n", rep.ExposedLocalMem)
	fmt.Printf("  idle:               %v\n", rep.Idle)
	fmt.Printf("traffic per dim (MB, sent+received per NPU): %v\n", fmtFloats(rep.TrafficPerDimMB))
	fmt.Printf("collectives: %d, events: %d\n", rep.Collectives, rep.Events)
}

func fmtFloats(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = strconv.FormatFloat(f, 'f', 1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "astrasim:", err)
	prof.Stop() // os.Exit skips defers; flush any active profile capture
	os.Exit(1)
}
