package experiments

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/garnet"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/units"
)

// Section IV-C speedup study — a 1 MB All-Reduce on a 3D torus, simulated
// by the cycle-level backend (the Garnet substitute) and by the analytical
// backend. The paper reports 21.42 minutes vs 1.70 seconds (756x) on
// 4x4x4, and that only the analytical backend reaches 16x16x16 (3.14 s).
// Absolute wall-clock depends on host and implementation; the reproduced
// claim is the orders-of-magnitude gap and the scalability headroom.

// SpeedupResult compares the two backends.
type SpeedupResult struct {
	Size units.ByteSize

	// 4x4x4 torus, both backends.
	SmallShape          []int
	CycleWall           time.Duration // cycle-level wall-clock
	CycleSimTime        units.Time    // simulated collective time (cycle)
	CycleCycles         uint64
	AnalyticalWall      time.Duration
	AnalyticalSimTime   units.Time
	SpeedupSmall        float64 // CycleWall / AnalyticalWall
	SimTimeAgreementPct float64 // |cycle - analytical| / cycle, percent

	// 16x16x16 torus, analytical only.
	LargeShape          []int
	AnalyticalWallLarge time.Duration
	AnalyticalSimLarge  units.Time
}

// garnetLinkGBps is the cycle simulator's per-direction link rate:
// 16 bytes/flit at 1 GHz.
const garnetLinkGBps = 16.0

// torusTopo builds the analytical twin of a garnet torus: each ring
// dimension's shared capacity is twice the per-direction link rate.
func torusTopo(shape []int) (*topology.Topology, error) {
	dims := make([]topology.Dim, len(shape))
	for i, k := range shape {
		dims[i] = topology.Dim{
			Kind:      topology.Ring,
			Size:      k,
			Bandwidth: units.GBps(2 * garnetLinkGBps),
			Latency:   units.Nanosecond, // 1 cycle at 1 GHz
		}
	}
	return topology.New(dims...)
}

func analyticalTorusAllReduce(shape []int, size units.ByteSize) (units.Time, time.Duration, error) {
	top, err := torusTopo(shape)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	// A single chunk mirrors the cycle driver's bulk-synchronous step
	// barriers, so the two backends simulate the same schedule and their
	// simulated times are directly comparable.
	res, _, err := runEngine(top, collective.AllReduce, size, 1, collective.Baseline)
	if err != nil {
		return 0, 0, err
	}
	return res.Duration(), time.Since(start), nil
}

// speedupRun is one backend measurement: simulated time plus the
// wall-clock it took to produce it.
type speedupRun struct {
	Wall   time.Duration
	Sim    units.Time
	Cycles uint64
}

// Speedup runs the comparison. size is typically 1 MB (the paper's
// setting); tests may shrink it to bound runtime. The cells measure their
// own wall-clock, so they carry no fingerprints: a wall-clock study must
// never be served from cache.
func Speedup(size units.ByteSize, o Options) (*SpeedupResult, error) {
	out := &SpeedupResult{
		Size:       size,
		SmallShape: []int{4, 4, 4},
		LargeShape: []int{16, 16, 16},
	}
	runs := []string{"cycle-4x4x4", "analytical-4x4x4", "analytical-16x16x16"}
	spec := sweep.Spec[speedupRun]{
		Name: "speedup",
		Axes: []sweep.Axis{{Name: "run", Values: runs}},
		Cell: func(pt sweep.Point) (speedupRun, error) {
			switch pt.Value("run") {
			case "cycle-4x4x4":
				start := time.Now()
				g, err := garnet.New(garnet.Config{Shape: out.SmallShape, FlitBytes: 16, LinkLatency: 1, ClockGHz: 1})
				if err != nil {
					return speedupRun{}, err
				}
				simTime, cycles, err := g.AllReduce(size)
				if err != nil {
					return speedupRun{}, fmt.Errorf("cycle backend: %w", err)
				}
				return speedupRun{Wall: time.Since(start), Sim: simTime, Cycles: cycles}, nil
			case "analytical-4x4x4":
				sim, wall, err := analyticalTorusAllReduce(out.SmallShape, size)
				return speedupRun{Wall: wall, Sim: sim}, err
			default:
				sim, wall, err := analyticalTorusAllReduce(out.LargeShape, size)
				return speedupRun{Wall: wall, Sim: sim}, err
			}
		},
	}
	// Wall-clock cells must not contend for cores with each other: pin
	// the study to one worker regardless of the caller's Exec, or the
	// cycle-level run would deschedule the analytical timing and distort
	// the headline speedup.
	exec := o.Exec
	exec.Workers = 1
	res, err := sweep.Run(spec, exec)
	if err != nil {
		return nil, err
	}
	rows := res.Values()
	cycle, small, large := rows[0], rows[1], rows[2]

	out.CycleWall = cycle.Wall
	out.CycleSimTime = cycle.Sim
	out.CycleCycles = cycle.Cycles
	out.AnalyticalSimTime = small.Sim
	out.AnalyticalWall = small.Wall
	if out.AnalyticalWall > 0 {
		out.SpeedupSmall = float64(out.CycleWall) / float64(out.AnalyticalWall)
	}
	if out.CycleSimTime > 0 {
		diff := out.CycleSimTime - out.AnalyticalSimTime
		if diff < 0 {
			diff = -diff
		}
		out.SimTimeAgreementPct = 100 * float64(diff) / float64(out.CycleSimTime)
	}
	out.AnalyticalSimLarge = large.Sim
	out.AnalyticalWallLarge = large.Wall
	return out, nil
}
