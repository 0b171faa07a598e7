package astrasim

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"
)

func testSweepSpec() SweepSpec {
	return SweepSpec{
		Name: "test",
		Machines: []SweepMachine{
			{Name: "ring", Config: MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{300}}},
			{Name: "switch", Config: MachineConfig{Topology: "SW(4)", BandwidthsGBps: []float64{300}}},
		},
		Workloads: []WorkloadSpec{
			{Kind: "all_reduce", SizeBytes: 64 << 20},
			{Kind: "all_gather", SizeBytes: 64 << 20},
		},
	}
}

func TestRunSweepGrid(t *testing.T) {
	res, err := RunSweep(testSweepSpec(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cells != 4 || len(res.Rows) != 4 {
		t.Fatalf("got %d cells / %d rows, want 4 / 4", res.Cells, len(res.Rows))
	}
	if res.Executed != 4 {
		t.Errorf("executed %d, want 4 (all cells distinct)", res.Executed)
	}
	// Machine-major order.
	wantOrder := []string{"ring", "ring", "switch", "switch"}
	for i, row := range res.Rows {
		if row.Machine != wantOrder[i] {
			t.Errorf("row %d machine = %q, want %q", i, row.Machine, wantOrder[i])
		}
		if row.Report == nil || row.Report.Makespan <= 0 {
			t.Errorf("row %d has no report", i)
		}
	}
	// Every cell matches a direct single run.
	m, err := NewMachine(MachineConfig{Topology: "R(4)", BandwidthsGBps: []float64{300}})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := m.Run(Collective("all_reduce", 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Report.Makespan != direct.Makespan {
		t.Errorf("sweep cell makespan %v != direct run %v", res.Rows[0].Report.Makespan, direct.Makespan)
	}
}

func TestRunSweepDeterministicAndDeduplicated(t *testing.T) {
	spec := testSweepSpec()
	// Duplicate the first machine under another name: same content, so it
	// must be simulated once and share results.
	spec.Machines = append(spec.Machines, SweepMachine{Name: "ring-again", Config: spec.Machines[0].Config})

	serial, err := RunSweep(spec, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cells != 6 || serial.Executed != 4 {
		t.Errorf("cells=%d executed=%d, want 6 cells with 4 simulated", serial.Cells, serial.Executed)
	}
	for i := 0; i < 2; i++ {
		if serial.Rows[i].Report.Makespan != serial.Rows[4+i].Report.Makespan {
			t.Errorf("duplicate machine row %d differs from original", i)
		}
	}

	var want bytes.Buffer
	if err := serial.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := RunSweep(spec, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := par.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Errorf("workers=%d: CSV differs from serial", workers)
		}
	}
}

func TestRunSweepProgressAndErrors(t *testing.T) {
	var last int
	spec := testSweepSpec()
	if _, err := RunSweep(spec, SweepOptions{Progress: func(done, total int) { last = done }}); err != nil {
		t.Fatal(err)
	}
	if last != 4 {
		t.Errorf("final progress = %d, want 4", last)
	}

	spec.Machines[1].Config.Topology = "NOPE(4)"
	if _, err := RunSweep(spec, SweepOptions{}); err == nil {
		t.Error("bad machine config accepted")
	}
	spec = testSweepSpec()
	spec.Workloads[0].Kind = "nope"
	if _, err := RunSweep(spec, SweepOptions{}); err == nil {
		t.Error("bad workload accepted")
	}
	if _, err := RunSweep(SweepSpec{}, SweepOptions{}); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestLoadSweepSpec(t *testing.T) {
	doc := `{
	  "name": "bw-scan",
	  "machines": [
	    {"name": "conv", "config": {"Topology": "R(4)_SW(2)", "BandwidthsGBps": [200, 100]}}
	  ],
	  "workloads": [{"kind": "all_reduce", "size_bytes": 1048576}]
	}`
	spec, err := LoadSweepSpec(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "bw-scan" || len(spec.Machines) != 1 || len(spec.Workloads) != 1 {
		t.Fatalf("parsed spec %+v", spec)
	}
	res, err := RunSweep(spec, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows", len(res.Rows))
	}

	if _, err := LoadSweepSpec(strings.NewReader(`{"machiness": []}`)); err == nil {
		t.Error("unknown field accepted")
	}
	// Concatenated documents and trailing junk must not be silently
	// dropped.
	if _, err := LoadSweepSpec(strings.NewReader(`{"name":"a","machines":[],"workloads":[]} {"name":"b"} trailing junk`)); err == nil {
		t.Error("trailing data accepted")
	}
}

// TestNegativeWorkloadSpecRejectedUpFront: a negative iteration count or
// payload fails when the workload is materialized, so a sweep rejects it
// before simulating any cell rather than mid-grid (or, for iterations,
// silently running once).
func TestNegativeWorkloadSpecRejectedUpFront(t *testing.T) {
	for _, ws := range []string{
		`{"kind":"all_reduce","iterations":-3}`,
		`{"kind":"all_reduce","size_bytes":-5}`,
	} {
		doc := `{"machines":[{"config":{"Topology":"R(4)","BandwidthsGBps":[100]}}],"workloads":[{"kind":"all_gather"},` + ws + `]}`
		spec, err := LoadSweepSpec(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Workloads[1].Workload(); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: Workload() = %v, want a negative-value error", ws, err)
		}
		done := 0
		_, err = RunSweep(spec, SweepOptions{Progress: func(d, _ int) { done = d }})
		if err == nil || !strings.Contains(err.Error(), "workload 1") {
			t.Errorf("%s: RunSweep = %v, want an up-front error naming workload 1", ws, err)
		}
		if done != 0 {
			t.Errorf("%s: %d cells simulated before the spec was rejected", ws, done)
		}
	}
}

// TestNegativeWorkloadParamsRejected: every numeric workload field is
// range-checked when the spec is materialized, and the error names the
// field; zero still selects the default.
func TestNegativeWorkloadParamsRejected(t *testing.T) {
	for _, tc := range []struct {
		doc, field string
	}{
		{`{"kind":"transformer","params":-1}`, "params"},
		{`{"kind":"transformer","layers":-1}`, "layers"},
		{`{"kind":"fsdp","hidden":-1024}`, "hidden"},
		{`{"kind":"fsdp","seq_len":-2048}`, "seq_len"},
		{`{"kind":"transformer","micro_batch":-1}`, "micro_batch"},
		{`{"kind":"threed","bytes_per_elem":-2}`, "bytes_per_elem"},
		{`{"kind":"transformer","mp":-8}`, "mp"},
		{`{"kind":"pipeline","stages":-2}`, "stages"},
		{`{"kind":"threed","micro_batches":-4}`, "micro_batches"},
		{`{"kind":"pipeline","flops_per_stage":-1e12}`, "flops_per_stage"},
		{`{"kind":"pipeline","activation_bytes":-1}`, "activation_bytes"},
		{`{"kind":"pipeline","grad_bytes":-1}`, "grad_bytes"},
	} {
		var ws WorkloadSpec
		if err := json.Unmarshal([]byte(tc.doc), &ws); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Workload(); err == nil || !strings.Contains(err.Error(), "negative "+tc.field+" ") {
			t.Errorf("%s: Workload() = %v, want an error naming negative %s", tc.doc, err, tc.field)
		}
	}
	for _, doc := range []string{
		`{"kind":"transformer","params":0,"layers":0,"hidden":0,"seq_len":0,"micro_batch":0,"bytes_per_elem":0,"mp":0}`,
		`{"kind":"pipeline","stages":0,"micro_batches":0,"flops_per_stage":0,"activation_bytes":0,"grad_bytes":0}`,
	} {
		var ws WorkloadSpec
		if err := json.Unmarshal([]byte(doc), &ws); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.Workload(); err != nil {
			t.Errorf("%s: zero fields rejected: %v", doc, err)
		}
	}
}

// TestCSVQuotesNames: user-supplied names (machines, jobs, trace-path
// workloads) may contain quotes and commas; every result's CSV must still
// parse as RFC 4180 and round-trip them, with numbers unchanged.
func TestCSVQuotesNames(t *testing.T) {
	const name = `ring "a", b`
	rep := &Report{Workload: name, Makespan: 1500 * time.Microsecond, Compute: 250 * time.Nanosecond}
	for _, tc := range []struct {
		kind string
		res  interface{ WriteCSV(io.Writer) error }
		rows int
	}{
		{"sweep", &SweepResult{Rows: []SweepRow{{Machine: name, Workload: name, Report: rep}}}, 1},
		{"search", &SearchResult{History: []SearchGeneration{{Fidelity: "simulate",
			Evals: []SearchEval{{Machine: name, Workload: name, Placement: name, Score: 1500 * time.Microsecond}}}}}, 1},
		{"cluster", &ClusterResult{Jobs: []ClusterJobRow{{Job: name, Workload: name, Local: name, Report: rep}}}, 1},
		{"scenario", &ScenarioResult{Machine: name, Workload: name, Clean: rep, Perturbed: rep, Slowdown: 1}, 2},
	} {
		var buf bytes.Buffer
		if err := tc.res.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		recs, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil {
			t.Errorf("%s: CSV does not parse: %v\n%s", tc.kind, err, buf.String())
			continue
		}
		if len(recs) != tc.rows+1 {
			t.Errorf("%s: %d records, want header + %d", tc.kind, len(recs), tc.rows)
			continue
		}
		for _, rec := range recs[1:] {
			names, micros := 0, 0
			for _, f := range rec {
				switch f {
				case name:
					names++
				case "1500":
					micros++
				}
			}
			if names == 0 || micros == 0 {
				t.Errorf("%s: record %q lost the name or the 1500 us value", tc.kind, rec)
			}
		}
	}
}

func TestWorkloadSpecKinds(t *testing.T) {
	good := []WorkloadSpec{
		{Kind: "all_reduce"},
		{Kind: "reduce_scatter", SizeBytes: 1 << 20},
		{Kind: "gpt3"},
		{Kind: "t1t"},
		{Kind: "dlrm"},
		{Kind: "moe"},
		{Kind: "moe_inswitch"},
		{Kind: "transformer", Params: 1e9, Layers: 2, Hidden: 1024, SeqLen: 128, MicroBatch: 1, BytesPerElem: 2, MP: 4},
		{Kind: "fsdp", Params: 1e9, Layers: 2, Hidden: 1024, SeqLen: 128, MicroBatch: 1, BytesPerElem: 2},
		{Kind: "pipeline", Stages: 4, MicroBatches: 8, FlopsPerStage: 1e12, ActivationBytes: 1 << 20, GradBytes: 1 << 20},
		{Kind: "all_to_all", Iterations: 3},
	}
	for _, ws := range good {
		if _, err := ws.Workload(); err != nil {
			t.Errorf("%s: %v", ws.Kind, err)
		}
	}
	bad := []WorkloadSpec{
		{Kind: "nope"},
		{Kind: "trace"}, // no path
		{},
	}
	for _, ws := range bad {
		if _, err := ws.Workload(); err == nil {
			t.Errorf("%q accepted", ws.Kind)
		}
	}
	// Iterations wrap the name.
	w, err := WorkloadSpec{Kind: "all_reduce", SizeBytes: 1 << 20, Iterations: 3}.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(w.Name(), "3x ") {
		t.Errorf("iterated workload name = %q", w.Name())
	}
}

func TestSweepResultJSONRoundTrips(t *testing.T) {
	res, err := RunSweep(testSweepSpec(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back SweepResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != len(res.Rows) || back.Rows[0].Report.Makespan != res.Rows[0].Report.Makespan {
		t.Error("JSON round-trip lost data")
	}
}
