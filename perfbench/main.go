// Command perfbench runs one repetition of one end-to-end simulator
// workload and prints its measurements as a single JSON line. run.py builds
// it, starts one fresh process per repetition, and aggregates the lines.
//
//	perfbench -workload gpt3-1k -seed 1 -ref perfbench/reference.json
//	perfbench -workload dse-loop -seed 7 -trace -ref perfbench/reference.json
//	perfbench -mkref > perfbench/reference.json
//	perfbench -calib
//
// Untraced runs time the workload with plain wall clocks. A traced run
// (-trace) additionally keeps a CPU profile in memory, times the calls into
// each layer, reads runtime.MemStats at span boundaries, and reports the
// per-layer numbers; it does the same simulated work, so traced wall_s
// minus untraced wall_s is the tracing overhead.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// result is one repetition's measurements.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	WallS     float64  `json:"wall_s"`
	SetupS    float64  `json:"setup_s"`
	Events    uint64   `json:"events"`
	Sims      int      `json:"sims"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	// Fig4MAEPct is the model's mean absolute error against the repo's
	// Fig. 4 reference data, reported beside every speed figure.
	Fig4MAEPct float64            `json:"fig4_mae_pct"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// run collects one repetition's counters. Every operation (a simulation,
// an estimate, a cluster job) is attempted once; an error or a simulated
// output that differs from the reference fails it.
type run struct {
	ref    reference
	traced bool
	res    result
	spans  map[string]float64
}

func (r *run) attempt(err error) bool {
	r.res.Attempted++
	if err != nil {
		r.fail(err)
		return false
	}
	return true
}

func (r *run) fail(err error) {
	r.res.Failed++
	if len(r.res.Errors) < 8 {
		r.res.Errors = append(r.res.Errors, err.Error())
	}
}

// check compares a simulated output with the reference entry under key.
// It is counted as part of the operation that produced the output, so it
// adds a failure but no attempt.
func (r *run) check(key string, got any) {
	if err := r.ref.check(key, got); err != nil {
		r.fail(err)
	}
}

// span times fn and, in a traced run, adds its duration to the named
// per-layer metric.
func (r *run) span(name string, fn func()) {
	t := time.Now()
	fn()
	if r.traced {
		r.spans[name] += time.Since(t).Seconds()
	}
}

// timed runs the workload's measured part: it sets wall_s and, in a traced
// run, keeps a CPU profile and MemStats deltas of it. Every workload calls
// it once; a collection first gives each the same starting heap.
func (r *run) timed(fn func()) {
	runtime.GC()
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	if r.traced {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			r.fail(fmt.Errorf("cpu profile: %w", err))
		}
	}
	t0 := time.Now()
	fn()
	r.res.WallS = time.Since(t0).Seconds()
	if !r.traced {
		return
	}
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	r.spans["gc.cycles"] = float64(ms1.NumGC - ms0.NumGC)
	r.spans["gc.pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	r.spans["gc.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	r.spans["gc.mallocs"] = float64(ms1.Mallocs - ms0.Mallocs)
	cpu, err := foldProfile(prof.Bytes())
	if err != nil {
		r.fail(fmt.Errorf("fold cpu profile: %w", err))
	}
	for k, v := range cpu {
		r.spans[k] = v
	}
}

// set records a per-layer value in a traced run.
func (r *run) set(name string, v float64) {
	if r.traced {
		r.spans[name] = v
	}
}

// peakRSSMB returns the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func main() {
	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed")
	traced := flag.Bool("trace", false, "traced run: CPU profile, layer spans, MemStats deltas")
	refPath := flag.String("ref", "", "reference outputs to check against (JSON)")
	mkref := flag.Bool("mkref", false, "simulate every referenced output and print the reference JSON")
	calib := flag.Bool("calib", false, "time the host calibration kernel and print the pass times as JSON")
	flag.Parse()

	if *calib {
		passes, err := calibrateAll()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		out, _ := json.Marshal(map[string][]float64{"calib_s": passes})
		fmt.Println(string(out))
		return
	}

	if *mkref {
		if err := writeReference(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	ref, err := loadReference(*refPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	r := &run{ref: ref, traced: *traced, res: result{Workload: *name, Seed: *seed,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}}
	if r.traced {
		r.spans = map[string]float64{}
	}
	if mae, err := fig4MAE(); r.attempt(err) {
		r.check("fig4_mae_pct", mae)
		r.res.Fig4MAEPct = mae
	}

	w(r, *seed)
	r.res.Layers = r.spans
	r.res.PeakRSSMB = peakRSSMB()

	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
