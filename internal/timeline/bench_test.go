package timeline

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkEventQueue measures the raw queue cost (schedule + pop) with a
// classic hold model: a standing population of pending events where every
// fired event schedules a successor at a pseudorandom future offset. This
// exercises heap sift-up and sift-down on every event, the engine's
// fundamental per-event cost.
func BenchmarkEventQueue(b *testing.B) {
	for _, pop := range []int{64, 1024} {
		b.Run(benchSize("pending", pop), func(b *testing.B) {
			e := New()
			// Deterministic xorshift so runs are comparable.
			rng := uint64(0x9e3779b97f4a7c15)
			next := func() units.Time {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return units.Time(rng%1000) + 1
			}
			fired := 0
			var tick Callback
			tick = func() {
				fired++
				if fired <= b.N {
					e.Schedule(next(), tick)
				}
			}
			for i := 0; i < pop; i++ {
				e.Schedule(next(), tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEventQueueStorm measures the lockstep pattern of large
// collectives: a standing population of events that all fire on a handful
// of instants, each firing scheduling its successor a fixed step later, so
// nearly every schedule lands on an instant that is already pending.
func BenchmarkEventQueueStorm(b *testing.B) {
	for _, pop := range []int{64, 4096} {
		b.Run(benchSize("pending", pop), func(b *testing.B) {
			e := New()
			fired := 0
			var tick Callback
			tick = func() {
				fired++
				if fired <= b.N {
					e.Schedule(100, tick)
				}
			}
			for i := 0; i < pop; i++ {
				e.Schedule(units.Time(i%4)+1, tick)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEventQueueZeroDelay measures the same-instant scheduling path
// (delay 0), which dominates callback-chained model code.
func BenchmarkEventQueueZeroDelay(b *testing.B) {
	e := New()
	fired := 0
	var tick Callback
	tick = func() {
		fired++
		if fired <= b.N {
			e.Schedule(0, tick)
		}
	}
	e.Schedule(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func benchSize(prefix string, v int) string {
	if v == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return prefix + "=" + string(buf[i:])
}
