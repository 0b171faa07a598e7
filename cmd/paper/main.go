// Command paper regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	paper -exp fig4      analytical-backend validation (Fig. 4)
//	paper -exp speedup   analytical vs cycle-level backend (Sec. IV-C)
//	paper -exp tableiv   wafer-scaling study (Table IV)
//	paper -exp fig9a     wafer vs conventional, 512 NPUs (Fig. 9a)
//	paper -exp fig9b     scalability study (Fig. 9b)
//	paper -exp fig11     disaggregated memory study (Table V / Fig. 11)
//	paper -exp taxonomy  topology notation round-trips (Fig. 3 / Table I)
//	paper -exp fabrics   pluggable-fabric comparison (Torus vs Ring-stack
//	                     vs oversubscribed Switch, GPT-3 + 1 GB All-Reduce)
//	paper -exp search    multi-fidelity design-space search: recover the
//	                     best GPT-3 fabric from the 24-point fabrics x
//	                     provisioning space with 25% of the simulations
//	paper -exp interference  multi-job interference: 1-8 co-scheduled
//	                     GPT-3/DLRM/MoE jobs on flat vs tapered switch vs
//	                     torus-pod fabrics, per-job slowdown vs isolated
//	paper -exp resilience    failure/straggler study: GPT-3 + DLRM on flat
//	                     vs torus-pod fabrics under mid-run spine
//	                     degradation and 1-5% compute stragglers, slowdown
//	                     vs the clean run
//	paper -exp all       everything above
//
// Every experiment grid runs on the parallel sweep engine; -parallel
// bounds the workers (results are byte-identical for any count) and -json
// emits machine-readable documents. User-defined machine x workload grids
// run through astrasim -sweep.
//
// Pass -reduced to shrink the workload layer counts 8x (ratios preserved);
// the full grids take a few minutes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/collective"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

// runner prints one experiment's result to w, as JSON when jsonOut is set.
type runner func(w io.Writer, o experiments.Options, jsonOut bool) error

// run executes one command line, printing results to stdout; flag errors
// and usage go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run (fig4|speedup|tableiv|fig9a|fig9b|fig11|taxonomy|ablation|pools|fabrics|search|interference|resilience|all)")
	reduced := fs.Bool("reduced", false, "shrink workloads for a quick pass")
	parallel := fs.Int("parallel", 0, "sweep worker count; 0 = all cores (results identical for any value)")
	jsonOut := fs.Bool("json", false, "emit results as JSON instead of tables")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap allocation profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	runners := map[string]runner{
		"fig4":         runFig4,
		"speedup":      runSpeedup,
		"tableiv":      runTableIV,
		"fig9a":        runFig9a,
		"fig9b":        runFig9b,
		"fig11":        runFig11,
		"taxonomy":     runTaxonomy,
		"ablation":     runAblation,
		"pools":        runPoolDesigns,
		"fabrics":      runFabrics,
		"search":       runSearch,
		"interference": runInterference,
		"resilience":   runResilience,
	}
	order := []string{"fig4", "speedup", "tableiv", "fig9a", "fig9b", "fig11", "taxonomy", "ablation", "pools", "fabrics", "search", "interference", "resilience"}
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		order = []string{*exp}
	}

	if err := prof.Start(*cpuprofile, *memprofile); err != nil {
		return err
	}
	defer prof.Stop()

	// One cache for the whole invocation: grids that overlap (e.g. the
	// Fig. 11 baseline inside its own sweep) simulate shared cells once.
	o := experiments.Options{
		Reduced: *reduced,
		Exec:    sweep.Exec{Workers: *parallel, Cache: sweep.NewCache()},
	}
	for _, name := range order {
		if err := runners[name](stdout, o, *jsonOut); err != nil {
			return err
		}
	}
	return nil
}

func header(w io.Writer, s string) {
	fmt.Fprintf(w, "\n## %s\n\n", s)
}

// emitJSON prints one experiment's result as a JSON document.
func emitJSON(w io.Writer, name string, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"experiment": name, "result": v})
}

func runFig4(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig4(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "fig4", res)
	}
	header(w, "Fig. 4 — analytical backend validation (All-Reduce on NVLink rings)")
	fmt.Fprintf(w, "%-6s %-10s %14s %14s %10s\n", "NPUs", "Size", "Reference", "Analytical", "Error")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-6d %-10s %12.1fus %12.1fus %9.1f%%\n",
			r.NPUs, r.Size, r.Reference.Micros(), r.Analytical.Micros(), r.ErrorPct)
	}
	fmt.Fprintf(w, "\nmean |error| = %.2f%%   (paper: 5%%)\n", res.MeanAbsErrorPct)
	return nil
}

func runSpeedup(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Speedup(units.MB, o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "speedup", res)
	}
	header(w, "Sec. IV-C — analytical vs cycle-level backend (1 MB All-Reduce)")
	fmt.Fprintf(w, "4x4x4 torus:\n")
	fmt.Fprintf(w, "  cycle-level:  wall %-14v sim %v (%d cycles)\n", res.CycleWall, res.CycleSimTime, res.CycleCycles)
	fmt.Fprintf(w, "  analytical:   wall %-14v sim %v\n", res.AnalyticalWall, res.AnalyticalSimTime)
	fmt.Fprintf(w, "  wall-clock speedup: %.0fx   (paper: 756x)\n", res.SpeedupSmall)
	fmt.Fprintf(w, "  simulated-time disagreement: %.2f%%\n", res.SimTimeAgreementPct)
	fmt.Fprintf(w, "16x16x16 torus (4096 NPUs), analytical only:\n")
	fmt.Fprintf(w, "  wall %v, sim %v   (paper: 3.14 s wall)\n", res.AnalyticalWallLarge, res.AnalyticalSimLarge)
	return nil
}

func runTableIV(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.TableIV(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "tableiv", res)
	}
	header(w, "Table IV — 1 GB All-Gather under wafer scaling")
	fmt.Fprintf(w, "%-10s %6s %8s %8s %8s %8s %14s\n", "System", "NPUs", "Dim1MB", "Dim2MB", "Dim3MB", "Dim4MB", "Collective")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %6d %8.1f %8.1f %8.1f %8.1f %12.2fus\n",
			r.System, r.NPUs,
			r.TrafficPerDim[0], r.TrafficPerDim[1], r.TrafficPerDim[2], r.TrafficPerDim[3],
			r.CollectiveTime.Micros())
	}
	base, _ := res.Row("Base-512")
	best, _ := res.Row("W-2048")
	fmt.Fprintf(w, "\npeak wafer speedup: %.2fx at W-2048   (paper: 2.51x, bounce at W-4096)\n",
		float64(base.CollectiveTime)/float64(best.CollectiveTime))
	return nil
}

func printCells(w io.Writer, cells []experiments.Cell, withPolicy bool) {
	fmt.Fprintf(w, "%-16s %-10s %-9s %12s %12s %12s\n", "Workload", "System", "Scheduler", "Compute", "ExposedComm", "Total")
	for _, c := range cells {
		pol := c.Policy.String()
		if !withPolicy {
			pol = "-"
		}
		fmt.Fprintf(w, "%-16s %-10s %-9s %10.2fms %10.2fms %10.2fms\n",
			c.Workload, c.System, pol,
			c.Compute.Seconds()*1e3, c.ExposedComm.Seconds()*1e3, c.Total.Seconds()*1e3)
	}
}

func runFig9a(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig9a(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "fig9a", res)
	}
	header(w, "Fig. 9(a) — wafer vs conventional systems, 512 NPUs")
	if o.Reduced {
		fmt.Fprintln(w, "(reduced workloads: layer counts / 8; ratios preserved)")
	}
	printCells(w, res.Cells, true)
	return nil
}

func runFig9b(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig9b(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "fig9b", res)
	}
	header(w, "Fig. 9(b) — conventional scale-out vs wafer scale-up")
	if o.Reduced {
		fmt.Fprintln(w, "(reduced workloads: layer counts / 8; ratios preserved)")
	}
	printCells(w, res.Cells, false)
	return nil
}

func runFig11(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fig11(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "fig11", res)
	}
	header(w, "Table V / Fig. 11 — disaggregated memory systems (MoE-1T)")
	fmt.Fprintf(w, "%-20s %10s %12s %12s %12s %10s %10s\n",
		"System", "Compute", "Exp.Comm", "Exp.Remote", "Exp.Local", "Idle", "Total")
	for _, b := range res.Bars {
		fmt.Fprintf(w, "%-20s %8.1fms %10.1fms %10.1fms %10.1fms %8.1fms %8.1fms\n",
			b.System,
			b.Compute.Seconds()*1e3, b.ExposedComm.Seconds()*1e3,
			b.ExposedRemoteMem.Seconds()*1e3, b.ExposedLocalMem.Seconds()*1e3,
			b.ExposedIdle.Seconds()*1e3, b.Total.Seconds()*1e3)
	}
	fmt.Fprintf(w, "\nZeRO-Infinity vs HierMem(baseline): %.2f%% apart   (paper: 0.1%%)\n", res.ZeroVsBaselinePct)
	fmt.Fprintf(w, "HierMem(opt) speedup over baseline: %.2fx          (paper: 4.6x)\n", res.SpeedupOptVsBaseline)
	fmt.Fprintf(w, "\nDesign-space sweep (in-node fabric GB/s x remote group GB/s):\n")
	for _, p := range res.Sweep {
		fmt.Fprintf(w, "  in=%5.0f rem=%4.0f  total=%8.1fms\n", p.InNodeFabricGBps, p.RemoteGroupGBps, p.Total.Seconds()*1e3)
	}
	return nil
}

func runTaxonomy(w io.Writer, o experiments.Options, jsonOut bool) error {
	examples := []struct{ spec, system string }{
		{"R(4)_R(2)", "Google TPUv2/v3"},
		{"SW(3)_SW(2)", "NVIDIA DGX-2 / DGX-A100"},
		{"FC(4)_SW(2)", "Intel Habana"},
		{"R(4)_SW(2)", "Meta Zion / NVIDIA DGX-1"},
		{"FC(4)_FC(2)_FC(2)", "DragonFly (fully populated)"},
		{"R(4)_R(2)_R(2)", "Google TPUv4 (3D torus)"},
		{"T2D(4,4)_SW(2)", "TPU-style 2D torus pods"},
		{"M(4)_SW(4,2)", "NoC mesh, 2:1 tapered uplinks"},
	}
	if jsonOut {
		type row struct {
			Notation string `json:"notation"`
			NPUs     int    `json:"npus"`
			Platform string `json:"platform"`
		}
		var rows []row
		for _, e := range examples {
			top, err := topology.Parse(e.spec)
			if err != nil {
				return err
			}
			rows = append(rows, row{Notation: top.String(), NPUs: top.NumNPUs(), Platform: e.system})
		}
		return emitJSON(w, "taxonomy", rows)
	}
	header(w, "Fig. 3 / Table I — topology taxonomy")
	fmt.Fprintf(w, "%-20s %6s %-28s %s\n", "Notation", "NPUs", "Platform", "Per-dim collectives (Table I)")
	for _, e := range examples {
		top, err := topology.Parse(e.spec)
		if err != nil {
			return err
		}
		algs := ""
		for i, d := range top.Dims {
			if i > 0 {
				algs += " / "
			}
			algs += d.Kind.CollectiveName()
		}
		fmt.Fprintf(w, "%-20s %6d %-28s %s\n", top.String(), top.NumNPUs(), e.system, algs)
	}
	// Demonstrate the closed-form estimator across the examples.
	fmt.Fprintf(w, "\n64 MB All-Reduce estimates at 100 GB/s per dim:\n")
	for _, e := range examples {
		top, _ := topology.Parse(e.spec)
		for i := range top.Dims {
			top.Dims[i].Bandwidth = units.GBps(100)
		}
		est := collective.Estimate(top, collective.AllReduce, 64*units.MB, collective.FullMachine(top), collective.Baseline, 64)
		fmt.Fprintf(w, "  %-20s %10.1fus\n", top.String(), est.Micros())
	}
	return nil
}

func runAblation(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Ablation(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "ablation", res)
	}
	header(w, "Ablation — chunk pipelining depth x scheduler (1 GB All-Reduce)")
	fmt.Fprintf(w, "%-10s %7s %-9s %14s %10s\n", "System", "Chunks", "Scheduler", "Collective", "Events")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-10s %7d %-9s %12.2fus %10d\n",
			r.System, r.Chunks, r.Policy, r.Duration.Micros(), r.SimEvents)
	}
	fmt.Fprintln(w, "\n1 chunk = no cross-dimension pipelining (sum of phases); the default")
	fmt.Fprintln(w, "64 chunks reaches the bottleneck-bound regime the paper's Table IV shows,")
	fmt.Fprintln(w, "and gives Themis enough granularity to balance dimension loads.")
	return nil
}

func runPoolDesigns(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.PoolDesigns(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "pools", res)
	}
	header(w, "Extension — Fig. 5 pool architectures under one bulk transfer")
	fmt.Fprintf(w, "%-28s %12s %14s\n", "Design", "Per-GPU", "Transfer")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-28s %12s %12.2fms\n", r.Design, r.PerGPU, r.Transfer.Seconds()*1e3)
	}
	fmt.Fprintln(w, "\nThe paper evaluates only the hierarchical design (Section V-B); this")
	fmt.Fprintln(w, "grid quantifies the fabric-architecture effect Fig. 5 sketches, at equal")
	fmt.Fprintln(w, "per-resource bandwidths.")
	return nil
}

func runFabrics(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Fabrics(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "fabrics", res)
	}
	header(w, "Extension — pluggable fabric comparison (512 NPUs, 500 GB/s configured per NPU)")
	if o.Reduced {
		fmt.Fprintln(w, "(reduced workloads: layer counts / 8; ratios preserved)")
	}
	printCells(w, res.Cells, false)
	fmt.Fprintln(w, "\nClosed-form 1 GB All-Reduce screening estimates:")
	est := experiments.FabricEstimates()
	for _, s := range experiments.FabricSystems() {
		fmt.Fprintf(w, "  %-10s %-18s %10.1fus\n", s.Name, s.Top.String(), est[s.Name].Micros())
	}
	fmt.Fprintln(w, "\nTorus vs ring-stack shows the single-fabric advantage; SW-Taper rows")
	fmt.Fprintln(w, "price leaf-switch oversubscription against the flat switch hierarchy.")
	return nil
}

func runInterference(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Interference(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "interference", res)
	}
	header(w, "Extension — multi-job interference (128-NPU fabrics, 16-NPU jobs, packed placement)")
	if o.Reduced {
		fmt.Fprintln(w, "(reduced workloads: layer counts / 8; ratios preserved)")
	}
	counts := experiments.InterferenceJobCounts()
	fmt.Fprintf(w, "%-12s %-12s %12s", "Fabric", "Workload", "Isolated")
	for _, n := range counts {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("x%d jobs", n))
	}
	fmt.Fprintln(w, "   (mean slowdown vs isolated)")
	for _, sys := range []string{"SW-Flat", "SW-Taper4", "Torus-Pods"} {
		for _, wl := range experiments.InterferenceWorkloads() {
			first, err := res.Cell(sys, wl, counts[0])
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %-12s %10.3fms", sys, wl, first.Isolated.Micros()/1000)
			for _, n := range counts {
				c, err := res.Cell(sys, wl, n)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %8.3fx", c.MeanSlowdown)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\nDLRM's All-to-All saturates the 4:1 spine as jobs pile on; GPT-3's")
	fmt.Fprintln(w, "hierarchical All-Reduce barely touches it. Torus pods isolate the")
	fmt.Fprintln(w, "network entirely — only the shared memory pool slows MoE down.")
	return nil
}

func runResilience(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.Resilience(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "resilience", res)
	}
	header(w, "Extension — failure/straggler resilience (128-NPU fabrics, slowdown vs clean run)")
	if o.Reduced {
		fmt.Fprintln(w, "(reduced workloads: layer counts / 8; ratios preserved)")
	}
	scens := experiments.ResilienceScenarios()
	fmt.Fprintf(w, "%-12s %-12s %12s", "Fabric", "Workload", "Clean")
	for _, sc := range scens {
		fmt.Fprintf(w, " %13s", sc)
	}
	fmt.Fprintln(w)
	for _, sys := range []string{"SW-Flat", "Torus-Pods"} {
		for _, wl := range experiments.ResilienceWorkloads() {
			first, err := res.Cell(sys, wl, scens[0])
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-12s %-12s %10.3fms", sys, wl, first.Clean.Micros()/1000)
			for _, sc := range scens {
				c, err := res.Cell(sys, wl, sc)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %12.3fx", c.Slowdown)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "\nThe clean column is the built-in regression check: an attached scenario")
	fmt.Fprintln(w, "with zero events reproduces the unperturbed run byte for byte (exactly")
	fmt.Fprintln(w, "1.000x). Degrading the spine taxes DLRM's All-to-All hardest, and a")
	fmt.Fprintln(w, "single 1.3x straggler costs as much as 5% of them: synchronous training")
	fmt.Fprintln(w, "gates every step on the slowest member, not on how many lag.")
	return nil
}

func runSearch(w io.Writer, o experiments.Options, jsonOut bool) error {
	res, err := experiments.FabricSearch(o)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(w, "search", res)
	}
	header(w, "Extension — multi-fidelity design-space search (fabrics x provisioning, GPT-3; scores in us)")
	if o.Reduced {
		fmt.Fprintln(w, "(reduced workloads: layer counts / 8; ratios preserved)")
	}
	if err := res.Halving.WriteTable(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nexhaustive baseline: %d full simulations, best %s\n",
		res.Exhaustive.Simulations, res.Exhaustive.Best.Label)
	verdict := "RECOVERED"
	if !res.Recovered {
		verdict = "MISSED"
	}
	fmt.Fprintf(w, "budgeted search %s the exhaustive optimum simulating %.0f%% of the %d-point space\n",
		verdict, 100*res.SimFraction, res.Space)
	fmt.Fprintln(w, "\nThe halving strategy screens every candidate with the closed-form")
	fmt.Fprintln(w, "All-Reduce estimate and runs the event engine only on the top quartile —")
	fmt.Fprintln(w, "the guided-search workflow the sweep grids exist to support.")
	return nil
}
