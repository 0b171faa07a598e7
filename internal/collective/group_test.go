package collective

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

func wafer512() *topology.Topology {
	return topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 512, Bandwidth: units.GBps(350),
	})
}

func TestSpanGroupContiguous(t *testing.T) {
	top := wafer512()
	// A model-parallel group of 16 adjacent NPUs starting at rank 32.
	g, err := NewSpanGroup(top, []Span{{Phys: 0, K: 16, Stride: 1}}, 32)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members(top)
	if len(m) != 16 || m[0] != 32 || m[15] != 47 {
		t.Fatalf("members = %v", m)
	}
	if g.Size() != 16 {
		t.Errorf("Size = %d", g.Size())
	}
}

func TestSpanGroupStrided(t *testing.T) {
	top := wafer512()
	// The data-parallel counterpart: 32 members with stride 16, from any
	// base inside the group.
	g, err := NewSpanGroup(top, []Span{{Phys: 0, K: 32, Stride: 16}}, 48)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members(top)
	if len(m) != 32 {
		t.Fatalf("len(members) = %d", len(m))
	}
	for i, r := range m {
		if r != i*16 {
			t.Fatalf("members[%d] = %d, want %d", i, r, i*16)
		}
	}
}

func TestSpanGroupBaseNormalization(t *testing.T) {
	top := wafer512()
	// Any member should produce the same group instance.
	a, err := NewSpanGroup(top, []Span{{Phys: 0, K: 16, Stride: 1}}, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpanGroup(top, []Span{{Phys: 0, K: 16, Stride: 1}}, 45)
	if err != nil {
		t.Fatal(err)
	}
	if a.Origin(top) != b.Origin(top) {
		t.Errorf("origins differ: %d vs %d", a.Origin(top), b.Origin(top))
	}
	// Different instances must differ.
	c, err := NewSpanGroup(top, []Span{{Phys: 0, K: 16, Stride: 1}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Origin(top) == c.Origin(top) {
		t.Error("distinct instances share an origin")
	}
}

// Origin is the lowest member rank for every base of every instance, on
// multi-dimensional topologies with strided and stacked spans too.
func TestOriginIsLowestMember(t *testing.T) {
	top := topology.MustNew(
		topology.Dim{Kind: topology.Ring, Size: 4, Bandwidth: units.GBps(100)},
		topology.Dim{Kind: topology.Switch, Size: 8, Bandwidth: units.GBps(50)},
	)
	layouts := [][]Span{
		{{Phys: 0, K: 4, Stride: 1}, {Phys: 1, K: 8, Stride: 1}},
		{{Phys: 1, K: 2, Stride: 4}},
		{{Phys: 0, K: 2, Stride: 1}, {Phys: 1, K: 2, Stride: 2}},
		{{Phys: 1, K: 2, Stride: 1}, {Phys: 1, K: 2, Stride: 2}},
	}
	for _, spans := range layouts {
		for base := 0; base < top.NumNPUs(); base++ {
			g, err := NewSpanGroup(top, spans, base)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := g.Origin(top), g.Members(top)[0]; got != want {
				t.Errorf("spans %v base %d: Origin = %d, want lowest member %d", spans, base, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = Group{Spans: layouts[0], Base: 13}.Origin(top)
	}); allocs != 0 {
		t.Errorf("Origin allocates %.1f objects, want 0", allocs)
	}
}

func TestSpanGroupValidation(t *testing.T) {
	top := wafer512()
	cases := []struct {
		name  string
		spans []Span
		base  int
	}{
		{"no spans", nil, 0},
		{"bad phys", []Span{{Phys: 3, K: 2, Stride: 1}}, 0},
		{"k too small", []Span{{Phys: 0, K: 1, Stride: 1}}, 0},
		{"zero stride", []Span{{Phys: 0, K: 2, Stride: 0}}, 0},
		{"overflow", []Span{{Phys: 0, K: 64, Stride: 16}}, 0}, // 63*16 >= 512
		// 3 does not divide 512: the last partial group would wrap, so
		// some rank's rendezvous could never complete.
		{"non-dividing footprint", []Span{{Phys: 0, K: 3, Stride: 1}}, 0},
		{"non-dividing strided footprint", []Span{{Phys: 0, K: 2, Stride: 3}}, 0},
		{"huge k*stride", []Span{{Phys: 0, K: 1 << 40, Stride: 1 << 40}}, 0},
		{"bad base", []Span{{Phys: 0, K: 2, Stride: 1}}, 9999},
	}
	for _, c := range cases {
		if _, err := NewSpanGroup(top, c.spans, c.base); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestHybridGroupsPartitionTheWafer(t *testing.T) {
	top := wafer512()
	const mp, dp = 16, 32
	// The MP groups (one per DP position crossed with base offsets) and DP
	// groups must each partition the 512 NPUs.
	seen := make(map[int]bool)
	for base := 0; base < 512; base += mp {
		g, err := NewSpanGroup(top, []Span{{Phys: 0, K: mp, Stride: 1}}, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members(top) {
			if seen[m] {
				t.Fatalf("rank %d in two MP groups", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 512 {
		t.Errorf("MP groups covered %d ranks", len(seen))
	}
	seen = make(map[int]bool)
	for base := 0; base < mp; base++ {
		g, err := NewSpanGroup(top, []Span{{Phys: 0, K: dp, Stride: mp}}, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members(top) {
			if seen[m] {
				t.Fatalf("rank %d in two DP groups", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != 512 {
		t.Errorf("DP groups covered %d ranks", len(seen))
	}
}

func TestStridedCollectiveRuns(t *testing.T) {
	top := topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 64, Bandwidth: units.GBps(100),
	})
	eng, _, ce := newRig(t, top, WithChunks(4))
	g, err := NewSpanGroup(top, []Span{{Phys: 0, K: 8, Stride: 8}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := runCollective(t, eng, ce, AllReduce, 8*units.MB, g)
	// All-Reduce over 8 logical members: traffic 2*2*S*(7/8) = 28 MB at
	// 100 GB/s = 280 us.
	want := units.FromMicros(280)
	if res.Duration() != want {
		t.Errorf("strided All-Reduce = %v, want %v", res.Duration(), want)
	}
}

func TestMultiSpanSamePhysicalDim(t *testing.T) {
	// A 2D logical decomposition of one physical dimension: 4x4 over a
	// 16-ring. Legal and useful for logical-topology studies.
	top := topology.MustNew(topology.Dim{
		Kind: topology.Ring, Size: 16, Bandwidth: units.GBps(100),
	})
	g, err := NewSpanGroup(top, []Span{
		{Phys: 0, K: 4, Stride: 1},
		{Phys: 0, K: 4, Stride: 4},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members(top)
	if len(m) != 16 {
		t.Fatalf("members = %v", m)
	}
	for i, r := range m {
		if r != i {
			t.Fatalf("members[%d] = %d", i, r)
		}
	}
}
