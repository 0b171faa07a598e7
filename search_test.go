package astrasim

import (
	"bytes"
	"strings"
	"testing"
)

// testSearchSpec is a cheap 4-topology x 2-bandwidth x 1-workload space
// (8 machine candidates) whose collectives simulate in microseconds.
func testSearchSpec() SearchSpec {
	return SearchSpec{
		Name:       "test-search",
		Topologies: []string{"R(8)", "SW(8)", "M(8)", "FC(8)"},
		Bandwidths: [][]float64{{100}, {400}},
		Workloads:  []WorkloadSpec{{Kind: "all_reduce", SizeBytes: 64 << 20}},
	}
}

func TestOptimizeHalvingMatchesExhaustive(t *testing.T) {
	spec := testSearchSpec()
	spec.Strategy = "exhaustive"
	ex, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Simulations != 8 || ex.Feasible != 8 {
		t.Fatalf("exhaustive ran %d/%d, want 8/8", ex.Simulations, ex.Feasible)
	}
	spec.Strategy = "halving"
	ha, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ha.Simulations >= ex.Simulations {
		t.Errorf("halving simulated %d cells, not fewer than exhaustive's %d", ha.Simulations, ex.Simulations)
	}
	if ha.Estimates != 8 {
		t.Errorf("halving estimated %d candidates, want the whole space (8)", ha.Estimates)
	}
	if ha.Best.Machine != ex.Best.Machine || ha.Best.Workload != ex.Best.Workload {
		t.Errorf("halving best %s/%s != exhaustive best %s/%s",
			ha.Best.Machine, ha.Best.Workload, ex.Best.Machine, ex.Best.Workload)
	}
	if ha.Best.Score != ex.Best.Score {
		t.Errorf("winner scores differ: %v vs %v", ha.Best.Score, ex.Best.Score)
	}
	if ha.Best.Score <= 0 {
		t.Errorf("non-positive best score %v", ha.Best.Score)
	}
}

// TestOptimizeDeterministicAcrossWorkers mirrors the sweep engine's
// serial-parity guarantee: same seed + budget => byte-identical
// SearchResult at any -parallel worker count.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	for _, strategy := range []string{"halving", "random"} {
		spec := testSearchSpec()
		spec.Strategy = strategy
		spec.Seed = 99
		spec.MaxSimulations = 2
		var want bytes.Buffer
		for i, workers := range []int{1, 2, 8} {
			res, err := Optimize(spec, SearchOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := res.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			var csv bytes.Buffer
			if err := res.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			got.Write(csv.Bytes())
			if i == 0 {
				want = got
				continue
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("%s: workers=%d result differs from serial", strategy, workers)
			}
		}
	}
}

func TestOptimizePrunesInfeasibleCandidates(t *testing.T) {
	spec := testSearchSpec()
	// A 2-dimension topology in a space with 1-element bandwidth vectors:
	// both pairings are infeasible and must be pruned, not fatal.
	spec.Topologies = append(spec.Topologies, "R(4)_SW(2)")
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 10 || res.Feasible != 8 {
		t.Errorf("candidates=%d feasible=%d, want 10/8", res.Candidates, res.Feasible)
	}
	if len(res.Pruned) != 2 {
		t.Fatalf("%d pruned, want 2", len(res.Pruned))
	}
	for _, p := range res.Pruned {
		if !strings.Contains(p.Machine, "R(4)_SW(2)") || p.Reason == "" {
			t.Errorf("pruned entry %+v", p)
		}
	}

	// A bandwidth cost cap prunes the over-provisioned half of the space.
	spec = testSearchSpec()
	spec.MaxAggregateGBps = 200
	res, err = Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible != 4 {
		t.Errorf("feasible=%d under 200 GB/s cap, want 4 (the 100 GB/s half)", res.Feasible)
	}
	for _, p := range res.Pruned {
		if !strings.Contains(p.Reason, "exceeds budget") {
			t.Errorf("pruned reason %q", p.Reason)
		}
	}
	if !strings.Contains(res.Best.Machine, "@ 100 GB/s") {
		t.Errorf("best %q should come from the feasible 100 GB/s half", res.Best.Machine)
	}
}

func TestOptimizeExplicitMachinesAndObjective(t *testing.T) {
	spec := SearchSpec{
		Strategy:  "exhaustive",
		Objective: "comm",
		Machines: []SweepMachine{
			{Name: "slow", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{50}}},
			{Name: "fast", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{500}}},
		},
		Workloads: []WorkloadSpec{{Kind: "all_reduce", SizeBytes: 64 << 20}},
	}
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != "comm" {
		t.Errorf("objective = %q", res.Objective)
	}
	if res.Best.Machine != "fast" {
		t.Errorf("best machine = %q, want fast", res.Best.Machine)
	}
}

// TestOptimizeMultiWorkloadPromotesWholeMachines guards the default
// budget with several workloads: the screening estimate is machine-level,
// so every workload of a promoted machine must reach simulation — the
// optimum may be any of them, and cutting the block by candidate id would
// deterministically miss it.
func TestOptimizeMultiWorkloadPromotesWholeMachines(t *testing.T) {
	spec := SearchSpec{
		Machines: []SweepMachine{
			{Name: "slow", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{50}}},
			{Name: "fast", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{400}}},
		},
		Workloads: []WorkloadSpec{
			{Kind: "all_reduce", SizeBytes: 256 << 20},
			{Kind: "all_reduce", SizeBytes: 1 << 20}, // the true optimum
		},
	}
	spec.Strategy = "exhaustive"
	ex, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec.Strategy = "halving"
	ha, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One machine promoted => both its workloads simulated.
	if ha.Simulations != 2 {
		t.Errorf("halving ran %d simulations, want 2 (one whole machine)", ha.Simulations)
	}
	if ha.Best != ex.Best {
		t.Errorf("halving best %+v != exhaustive best %+v", ha.Best, ex.Best)
	}
	if ex.Best.Machine != "fast" || !strings.Contains(ex.Best.Workload, "1048576") {
		t.Errorf("unexpected exhaustive optimum %+v", ex.Best)
	}

	// An explicit population keeps the random strategy's sample-derived
	// budget even with multiple workloads: 2 sampled, ceil(2/4)=1
	// simulated — the whole-machine default must not override it.
	spec.Strategy = "random"
	spec.Seed = 3
	spec.Population = 2
	rnd, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Estimates != 2 || rnd.Simulations != 1 {
		t.Errorf("random population 2: %d estimates / %d simulations, want 2 / 1",
			rnd.Estimates, rnd.Simulations)
	}

	// Halving ignores Population, so a stray Population value must not
	// disable the whole-machine default budget.
	spec.Strategy = "halving"
	h2, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Simulations != 2 || h2.Best != ex.Best {
		t.Errorf("halving with stray population: %d simulations, best %+v; want 2, %+v",
			h2.Simulations, h2.Best, ex.Best)
	}
}

// TestOptimizeProgressMonotonic checks the rung-spanning progress
// adapter: the halving search runs two sweeps (estimate, simulate), but
// the reported counters must never reset.
func TestOptimizeProgressMonotonic(t *testing.T) {
	spec := testSearchSpec()
	lastDone, lastTotal, calls := -1, -1, 0
	_, err := Optimize(spec, SearchOptions{Workers: 1, Progress: func(done, total int) {
		calls++
		if done < lastDone {
			t.Errorf("progress done reset: %d after %d", done, lastDone)
		}
		if total < lastTotal {
			t.Errorf("progress total shrank: %d after %d", total, lastTotal)
		}
		lastDone, lastTotal = done, total
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 8 estimates + 2 simulations, reported cumulatively.
	if calls == 0 || lastDone != lastTotal || lastDone != 10 {
		t.Errorf("final progress %d/%d after %d calls, want 10/10", lastDone, lastTotal, calls)
	}
}

func TestLoadSearchSpec(t *testing.T) {
	doc := `{
	  "name": "fabric-hunt",
	  "strategy": "halving",
	  "topologies": ["R(8)", "SW(8)"],
	  "bandwidths": [[100]],
	  "workloads": [{"kind": "all_reduce", "size_bytes": 1048576}]
	}`
	spec, err := LoadSearchSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates != 2 {
		t.Errorf("candidates = %d, want 2", res.Candidates)
	}
	if _, err := LoadSearchSpec(strings.NewReader(`{"topologiez": []}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadSearchSpec(strings.NewReader(doc + `{"name":"second"}`)); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestOptimizeSpecErrors(t *testing.T) {
	base := testSearchSpec()

	spec := base
	spec.Workloads = nil
	if _, err := Optimize(spec, SearchOptions{}); err == nil {
		t.Error("no workloads accepted")
	}

	spec = base
	spec.Topologies = nil
	if _, err := Optimize(spec, SearchOptions{}); err == nil {
		t.Error("empty machine space accepted")
	}

	spec = base
	spec.Workloads = []WorkloadSpec{{Kind: "nope"}}
	if _, err := Optimize(spec, SearchOptions{}); err == nil {
		t.Error("bad workload accepted")
	}

	spec = base
	spec.Strategy = "annealing"
	if _, err := Optimize(spec, SearchOptions{}); err == nil {
		t.Error("unknown strategy accepted")
	}

	spec = base
	spec.Objective = "dollars"
	if _, err := Optimize(spec, SearchOptions{}); err == nil {
		t.Error("unknown objective accepted")
	}

	spec = base
	spec.ProxyOp = "broadcast"
	if _, err := Optimize(spec, SearchOptions{}); err == nil {
		t.Error("unknown proxy op accepted")
	}

	// All candidates infeasible is an error (nothing to search).
	spec = base
	spec.MaxAggregateGBps = 1
	if _, err := Optimize(spec, SearchOptions{}); err == nil {
		t.Error("fully pruned space accepted")
	}
}

func TestSearchResultWriters(t *testing.T) {
	spec := testSearchSpec()
	res, err := Optimize(spec, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var tbl bytes.Buffer
	if err := res.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"strategy=halving", "rung 0: estimate", "rung 1: simulate", "best:"} {
		if !strings.Contains(tbl.String(), want) {
			t.Errorf("table missing %q:\n%s", want, tbl.String())
		}
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "generation,fidelity,machine,workload,placement,score_us,promoted\n") {
		t.Errorf("CSV header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
}

func TestRegisteredBlocksExported(t *testing.T) {
	blocks := RegisteredBlocks()
	have := strings.Join(blocks, " ")
	for _, want := range []string{"r", "ring", "sw", "switch", "fc", "m", "mesh", "t2d", "torus"} {
		found := false
		for _, b := range blocks {
			if b == want {
				found = true
			}
		}
		if !found {
			t.Errorf("RegisteredBlocks missing %q (have: %s)", want, have)
		}
	}
	for i := 1; i < len(blocks); i++ {
		if blocks[i-1] >= blocks[i] {
			t.Errorf("blocks not sorted: %v", blocks)
		}
	}
}
