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
//
// Spec files and -config are decoded strictly: unknown fields and any data
// after the JSON document are errors. Every spec kind prints a table by
// default, a JSON document with -json, or RFC 4180 CSV with -csv.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/prof"
	"repro/internal/strictjson"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "astrasim:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	config, topology, bw, scheduler string
	tflops                          float64
	workload                        string
	size                            int64
	trace                           string
	pytorch, json, csv              bool
	timeline                        string
	sweep, optimize, cluster        string
	scenario                        string
	slowdowns                       bool
	parallel                        int
	cpuprofile, memprofile          string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("astrasim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.config, "config", "", "machine config JSON file (astrasim.MachineConfig)")
	fs.StringVar(&o.topology, "topology", "", "topology shape, e.g. R(2)_FC(8)_R(8)_SW(4), T2D(4,4)_SW(8,2); registered blocks: "+strings.Join(astrasim.RegisteredBlocks(), ", "))
	fs.StringVar(&o.bw, "bw", "", "per-dimension bandwidths in GB/s, comma separated")
	fs.StringVar(&o.scheduler, "scheduler", "", "collective scheduler: baseline or themis (default: config file or baseline)")
	fs.Float64Var(&o.tflops, "tflops", 0, "NPU peak TFLOPS (default: config file or 234)")
	fs.StringVar(&o.workload, "workload", "all_reduce", "workload: all_reduce|all_gather|reduce_scatter|all_to_all|gpt3|t1t|dlrm|moe|pipeline")
	fs.Int64Var(&o.size, "size", 1<<30, "collective size in bytes (collective workloads)")
	fs.StringVar(&o.trace, "trace", "", "run an ASTRA-sim ET JSON file instead of a built-in workload")
	fs.BoolVar(&o.pytorch, "pytorch", false, "treat -trace as a PARAM-style PyTorch execution graph")
	fs.BoolVar(&o.json, "json", false, "print the report (or sweep result) as JSON")
	fs.StringVar(&o.timeline, "timeline", "", "write a Chrome-trace timeline (chrome://tracing) to this file")
	fs.StringVar(&o.sweep, "sweep", "", "run a machine x workload sweep grid from this JSON spec instead of a single simulation")
	fs.StringVar(&o.optimize, "optimize", "", "run a budgeted design-space search from this JSON spec (astrasim.SearchSpec; strategies: "+strings.Join(astrasim.SearchStrategies(), ", ")+")")
	fs.StringVar(&o.cluster, "cluster", "", "co-simulate multiple training jobs sharing one fabric from this JSON spec (astrasim.ClusterSpec; placements: "+strings.Join(astrasim.ClusterPlacements(), ", ")+")")
	fs.StringVar(&o.scenario, "scenario", "", "run a failure/straggler scenario from this JSON spec (astrasim.ScenarioSpec) and report slowdown vs the clean run")
	fs.BoolVar(&o.slowdowns, "slowdowns", true, "with -cluster, also run isolated baselines and report per-job slowdowns")
	fs.IntVar(&o.parallel, "parallel", 0, "sweep/search worker count; 0 = all cores (results identical for any value)")
	fs.BoolVar(&o.csv, "csv", false, "print the sweep or search result as CSV")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap allocation profile to this file at exit")
	return o, fs.Parse(args)
}

// run executes one command line: a spec file when one of -sweep,
// -optimize, -cluster or -scenario is given, a single simulation
// otherwise. Results go to stdout; progress and notices to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if err := prof.Start(o.cpuprofile, o.memprofile); err != nil {
		return err
	}
	defer prof.Stop()

	var res result
	switch {
	case o.sweep != "":
		var spec astrasim.SweepSpec
		if spec, err = load(o.sweep, astrasim.LoadSweepSpec); err == nil {
			res, err = astrasim.RunSweep(spec, astrasim.SweepOptions{
				Workers:  o.parallel,
				Progress: astrasim.ProgressLine(stderr),
			})
		}
	case o.optimize != "":
		var spec astrasim.SearchSpec
		if spec, err = load(o.optimize, astrasim.LoadSearchSpec); err == nil {
			// The search-wide total grows as the strategy commits to new
			// rungs, so done == total mid-run does not mean finished; the
			// in-place counter line is only terminated once the search
			// returns.
			progressed := false
			res, err = astrasim.Optimize(spec, astrasim.SearchOptions{
				Workers: o.parallel,
				Progress: func(done, total int) {
					progressed = true
					fmt.Fprintf(stderr, "\rsearch: %d/%d evaluations", done, total)
				},
			})
			if progressed {
				fmt.Fprintln(stderr)
			}
		}
	case o.cluster != "":
		var spec astrasim.ClusterSpec
		if spec, err = load(o.cluster, astrasim.LoadClusterSpec); err == nil {
			res, err = astrasim.RunCluster(spec, astrasim.ClusterOptions{Slowdowns: o.slowdowns})
		}
	case o.scenario != "":
		var spec astrasim.ScenarioSpec
		if spec, err = load(o.scenario, astrasim.LoadScenarioSpec); err == nil {
			res, err = astrasim.RunScenario(spec)
		}
	default:
		return runSingle(o, stdout, stderr)
	}
	if err != nil {
		return err
	}
	switch {
	case o.json:
		return res.WriteJSON(stdout)
	case o.csv:
		return res.WriteCSV(stdout)
	default:
		return res.WriteTable(stdout)
	}
}

// result is the output surface shared by sweep, search, cluster and
// scenario results.
type result interface {
	WriteJSON(io.Writer) error
	WriteCSV(io.Writer) error
	WriteTable(io.Writer) error
}

// load opens a JSON file and decodes it with a strict loader.
func load[T any](path string, decode func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return decode(f)
}

// runSingle simulates one workload on one machine and prints its report.
func runSingle(o options, stdout, stderr io.Writer) error {
	cfg, err := machineConfig(o)
	if err != nil {
		return err
	}
	m, err := astrasim.NewMachine(cfg)
	if err != nil {
		return err
	}
	w, err := pickWorkload(o)
	if err != nil {
		return err
	}
	var rep *astrasim.Report
	if o.timeline != "" {
		f, err := os.Create(o.timeline)
		if err != nil {
			return err
		}
		defer f.Close()
		if rep, err = m.RunWithTimeline(w, f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "timeline written to %s\n", o.timeline)
	} else if rep, err = m.Run(w); err != nil {
		return err
	}
	if o.json {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	printReport(stdout, m, rep)
	return nil
}

// machineConfig reads -config strictly (unknown fields and trailing data
// are errors), then applies the quick flags.
func machineConfig(o options) (astrasim.MachineConfig, error) {
	var cfg astrasim.MachineConfig
	if o.config != "" {
		var err error
		cfg, err = load(o.config, func(r io.Reader) (astrasim.MachineConfig, error) {
			var c astrasim.MachineConfig
			err := strictjson.Decode(r, &c)
			return c, err
		})
		if err != nil {
			return cfg, fmt.Errorf("parse %s: %w", o.config, err)
		}
	}
	if o.topology != "" {
		cfg.Topology = o.topology
	}
	if o.bw != "" {
		parts := strings.Split(o.bw, ",")
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
	if o.scheduler != "" {
		cfg.Scheduler = o.scheduler
	}
	if o.tflops != 0 {
		cfg.PeakTFLOPS = o.tflops
	}
	if cfg.Topology == "" {
		return cfg, fmt.Errorf("no topology: pass -topology or -config")
	}
	return cfg, nil
}

// pickWorkload maps the single-run flags onto a declarative WorkloadSpec —
// the same path sweep grids use.
func pickWorkload(o options) (astrasim.Workload, error) {
	spec := astrasim.WorkloadSpec{Kind: o.workload, SizeBytes: o.size}
	if o.trace != "" {
		spec = astrasim.WorkloadSpec{Kind: "trace", Path: o.trace}
		if o.pytorch {
			spec.Kind = "pytorch_trace"
		}
	} else if o.workload == "pipeline" {
		spec = astrasim.WorkloadSpec{
			Kind: "pipeline", Stages: 4, MicroBatches: 8, FlopsPerStage: 1e12,
			ActivationBytes: 16 << 20, GradBytes: 64 << 20,
		}
	}
	return spec.Workload()
}

func printReport(w io.Writer, m *astrasim.Machine, rep *astrasim.Report) {
	fmt.Fprintf(w, "machine:   %s (%d NPUs, %.0f GB/s per NPU)\n",
		m.TopologySpec(), m.NumNPUs(), m.AggregateBandwidthGBps())
	fmt.Fprintf(w, "workload:  %s\n", rep.Workload)
	fmt.Fprintf(w, "makespan:  %v\n", rep.Makespan)
	fmt.Fprintf(w, "breakdown (mean per NPU):\n")
	fmt.Fprintf(w, "  compute:            %v\n", rep.Compute)
	fmt.Fprintf(w, "  exposed comm:       %v\n", rep.ExposedComm)
	fmt.Fprintf(w, "  exposed remote mem: %v\n", rep.ExposedRemoteMem)
	fmt.Fprintf(w, "  exposed local mem:  %v\n", rep.ExposedLocalMem)
	fmt.Fprintf(w, "  idle:               %v\n", rep.Idle)
	fmt.Fprintf(w, "traffic per dim (MB, sent+received per NPU): %v\n", fmtFloats(rep.TrafficPerDimMB))
	fmt.Fprintf(w, "collectives: %d, events: %d\n", rep.Collectives, rep.Events)
}

func fmtFloats(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = strconv.FormatFloat(f, 'f', 1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
