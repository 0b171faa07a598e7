package main

import (
	"fmt"
	"runtime"
	"time"
)

// Host calibration. The benchmark runs on shared hosts whose speed drifts
// by tens of percent over minutes, with neighbour load on the caches,
// memory and sibling hyperthreads. run.py therefore times this fixed
// kernel in a fresh process before the first repetition of a workload and
// after every one, and reports the workload's times in seconds of a
// reference host: host seconds times CALIB_NOMINAL_S over the median
// calibration pass. The kernel lives in this package, so no change to the
// simulator moves it: a faster program lowers the reported times, while a
// slower host slows both and cancels.
//
// The kernel does what the simulator does per event: it pops a timestamped
// event off a binary heap, looks its target up in a map, updates the
// target and a peer, allocates now and then, and pushes a follow-up event.

const (
	calibTargets = 1 << 16 // map entries
	calibEvents  = 100_000 // events fired per pass
	calibFanout  = 1 << 12 // events in flight
)

type calibEvent struct {
	at     int64
	target uint32
}

type calibTarget struct {
	fired   uint32
	last    int64
	history []int64
	peers   [6]uint32
}

// calibPasses is how many timed passes follow the untimed warm-up pass,
// which pays the process's first heap growth.
const calibPasses = 5

// calibChecksum is the kernel's checksum; a pass that computes another
// did not do the reference work.
const calibChecksum = 250217663

// calibrateAll runs the warm-up pass and the timed passes and returns the
// timed passes' wall times.
func calibrateAll() ([]float64, error) {
	var passes []float64
	for i := 0; i <= calibPasses; i++ {
		runtime.GC()
		t0 := time.Now()
		sum := calibKernel()
		s := time.Since(t0).Seconds()
		if sum != calibChecksum {
			return nil, fmt.Errorf("calibration checksum %d, want %d", sum, uint64(calibChecksum))
		}
		if i > 0 {
			passes = append(passes, s)
		}
	}
	return passes, nil
}

func calibKernel() uint64 {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	targets := make(map[uint32]*calibTarget, calibTargets)
	for i := uint32(0); i < calibTargets; i++ {
		t := &calibTarget{}
		for p := range t.peers {
			t.peers[p] = uint32(next() % calibTargets)
		}
		targets[i] = t
	}
	heap := make([]calibEvent, 0, calibFanout*2)
	push := func(e calibEvent) {
		heap = append(heap, e)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].at <= e.at {
				break
			}
			heap[i] = heap[p]
			i = p
		}
		heap[i] = e
	}
	pop := func() calibEvent {
		top := heap[0]
		last := heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		n := len(heap)
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && heap[c+1].at < heap[c].at {
				c++
			}
			if last.at <= heap[c].at {
				break
			}
			heap[i] = heap[c]
			i = c
		}
		if n > 0 {
			heap[i] = last
		}
		return top
	}
	for i := 0; i < calibFanout; i++ {
		push(calibEvent{at: int64(next() % 1000), target: uint32(next() % calibTargets)})
	}

	var sum uint64
	for fired := 0; fired < calibEvents; fired++ {
		e := pop()
		t := targets[e.target]
		t.fired++
		t.last = e.at
		if t.fired%8 == 0 {
			// Retire the history now and then, as finished work is.
			t.history = make([]int64, 0, 4)
		}
		t.history = append(t.history, e.at)
		peer := targets[t.peers[e.at%int64(len(t.peers))]]
		sum += uint64(peer.last) ^ uint64(peer.fired)
		push(calibEvent{at: e.at + 1 + int64(next()%1000), target: t.peers[next()%uint64(len(t.peers))]})
	}
	for _, t := range targets {
		sum += uint64(t.fired) * uint64(len(t.history))
	}
	return sum
}
