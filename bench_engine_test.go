package astrasim

// Engine hot-path benchmarks (E8): the discrete-event core's cost per event
// on the chunked collective path, the workload that dominates every paper
// figure. BenchmarkEngineHotPath sweeps the NPU count from 64 to 32768 and
// writes BENCH_engine.json with ns/event, allocs/event and events/sec per
// scale for two series: "current", one whole-machine All-Reduce, and
// "subgroup", the hybrid-parallel pattern of an MP16 All-Reduce on every
// dims-0-1 block plus a DP All-Reduce on every dim-2 block, whose event
// count grows with the machine. The artifact also records the Go version,
// GOMAXPROCS and the host's core count.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/collective"
	"repro/internal/network"
	"repro/internal/timeline"
	"repro/internal/topology"
	"repro/internal/units"
)

// engineBenchRecord is one row of BENCH_engine.json.
type engineBenchRecord struct {
	NPUs           int     `json:"npus"`
	Topology       string  `json:"topology"`
	EventsPerOp    uint64  `json:"events_per_op"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	EventsPerSec   float64 `json:"events_per_sec"`
}

type engineBenchHost struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

type engineBenchDoc struct {
	Workload         string              `json:"workload"`
	SubGroupWorkload string              `json:"subgroup_workload"`
	Host             engineBenchHost     `json:"host"`
	Current          []engineBenchRecord `json:"current"`
	SubGroup         []engineBenchRecord `json:"subgroup"`
}

// engineHotPathTopology builds the benchmark machine at a given scale:
// a three-level hierarchy (intra-board ring, board fully-connected,
// scale-out switch) shaped like the paper's Conv systems.
func engineHotPathTopology(npus int) *topology.Topology {
	return topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(250), Latency: 50 * units.Nanosecond},
		topology.Dim{Kind: topology.FullyConnected, Size: 4, Bandwidth: units.GBps(100), Latency: 500 * units.Nanosecond},
		topology.Dim{Kind: topology.Switch, Size: npus / 16, Bandwidth: units.GBps(50), Latency: 2 * units.Microsecond},
	)
}

// startEngineHotPath launches one series' collectives on a fresh engine.
func startEngineHotPath(b *testing.B, ce *collective.Engine, top *topology.Topology, subgroup bool, size units.ByteSize) {
	if !subgroup {
		if err := ce.Start(collective.AllReduce, size, collective.FullMachine(top), nil); err != nil {
			b.Fatal(err)
		}
		return
	}
	// One MP All-Reduce per dims-0-1 block (16 NPUs) and one DP
	// All-Reduce per dim-2 block; a block's origin is its lowest rank.
	n := top.NumNPUs()
	for _, l := range []struct {
		dims          []int
		count, stride int
	}{{[]int{0, 1}, n / 16, 16}, {[]int{2}, 16, 1}} {
		for i := 0; i < l.count; i++ {
			g, err := collective.NewGroup(top, l.dims, i*l.stride)
			if err != nil {
				b.Fatal(err)
			}
			if err := ce.Start(collective.AllReduce, size, g, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineHotPath drives the production chunk-phase collective path
// (64-chunk 64 MB All-Reduces) at 64-32768 NPUs and records per-event cost.
func BenchmarkEngineHotPath(b *testing.B) {
	const (
		size   = 64 * units.MB
		chunks = 64
	)
	scales := []int{64, 256, 1024, 4096, 32768}
	var series [2][]engineBenchRecord // whole machine, sub-groups
	for s, name := range []string{"full", "subgroup"} {
		subgroup := s == 1
		series[s] = make([]engineBenchRecord, len(scales))
		for si, npus := range scales {
			top := engineHotPathTopology(npus)
			b.Run(fmt.Sprintf("%s/npus=%d", name, npus), func(b *testing.B) {
				b.ReportAllocs()
				var events uint64
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				for i := 0; i < b.N; i++ {
					eng := timeline.New()
					net := network.NewBackend(eng, top)
					ce := collective.NewEngine(net, collective.WithChunks(chunks))
					startEngineHotPath(b, ce, top, subgroup, size)
					if _, err := eng.Run(); err != nil {
						b.Fatal(err)
					}
					events = eng.Fired()
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&ms1)
				totalEvents := float64(events) * float64(b.N)
				nsPerEvent := float64(elapsed.Nanoseconds()) / totalEvents
				b.ReportMetric(nsPerEvent, "ns/event")
				// Mallocs includes per-op setup (engine, backend,
				// partitions, one state object per chunk); on a
				// multi-thousand-event run that fixed cost amortizes,
				// so the quotient tracks the hot path.
				allocsPerEvent := float64(ms1.Mallocs-ms0.Mallocs) / totalEvents
				b.ReportMetric(allocsPerEvent, "allocs/event")
				series[s][si] = engineBenchRecord{
					NPUs:           npus,
					Topology:       top.String(),
					EventsPerOp:    events,
					NsPerEvent:     nsPerEvent,
					AllocsPerEvent: allocsPerEvent,
					EventsPerSec:   1e9 / nsPerEvent,
				}
			})
		}
	}
	// Sub-benchmarks can be filtered away; only write the artifact when
	// every scale of both series ran, so a partial run never clobbers a
	// full capture.
	for _, rows := range series {
		for i := range rows {
			if rows[i].NPUs == 0 {
				return
			}
		}
	}
	doc := engineBenchDoc{
		Workload:         fmt.Sprintf("all_reduce(%v), %d chunks, R(4)_FC(4)_SW(n/16)", size, chunks),
		SubGroupWorkload: fmt.Sprintf("all_reduce(%v) on every dims-0-1 and every dim-2 block, %d chunks", size, chunks),
		Host: engineBenchHost{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Current:  series[0],
		SubGroup: series[1],
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_engine.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
