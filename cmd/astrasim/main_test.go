package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Tiny specs of every kind the CLI runs; each simulates in milliseconds.
var cliSpecs = []struct{ kind, flag, doc string }{
	{"sweep", "-sweep", `{"name":"g","machines":[{"name":"ring \"a\", b","config":{"Topology":"R(4)","BandwidthsGBps":[250]}}],
		"workloads":[{"kind":"all_reduce","size_bytes":1048576},{"kind":"all_gather","size_bytes":1048576}]}`},
	{"search", "-optimize", `{"name":"s","strategy":"halving","topologies":["R(8)","SW(8)"],"bandwidths":[[100],[400]],
		"workloads":[{"kind":"all_reduce","size_bytes":1048576}]}`},
	{"cluster-search", "-optimize", `{"cluster":{"jobs":[{"name":"a2a","npus":4,"count":2,"workload":{"kind":"all_to_all","size_bytes":1048576}}],
		"placements":["packed","strided"]},"topologies":["SW(4)_SW(2)","SW(4)_SW(2,2)"],"bandwidths":[[250,250]]}`},
	{"cluster", "-cluster", `{"name":"c","fabric":{"Topology":"SW(4)_SW(2,2)","BandwidthsGBps":[250,250]},
		"jobs":[{"name":"j","npus":4,"count":2,"workload":{"kind":"all_reduce","size_bytes":1048576}}]}`},
	{"scenario", "-scenario", `{"name":"o","machine":{"Topology":"R(8)","BandwidthsGBps":[300]},"workload":{"kind":"all_reduce","size_bytes":1048576},
		"events":[{"kind":"degrade_link","at_us":1,"dim":0,"factor":0.5}]}`},
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestSpecOutputs runs every spec kind through the three output forms:
// JSON must parse, CSV must parse as RFC 4180 with a consistent width, and
// the table must be non-empty.
func TestSpecOutputs(t *testing.T) {
	for _, spec := range cliSpecs {
		path, flag := writeFile(t, spec.kind+".json", spec.doc), spec.flag
		t.Run(spec.kind, func(t *testing.T) {
			out, err := runCLI(flag, path, "-parallel", "1", "-json")
			if err != nil {
				t.Fatalf("-json: %v", err)
			}
			var v map[string]any
			if err := json.Unmarshal([]byte(out), &v); err != nil {
				t.Errorf("-json output does not parse: %v\n%s", err, out)
			}

			out, err = runCLI(flag, path, "-parallel", "1", "-csv")
			if err != nil {
				t.Fatalf("-csv: %v", err)
			}
			recs, err := csv.NewReader(strings.NewReader(out)).ReadAll()
			if err != nil || len(recs) < 2 {
				t.Errorf("-csv output does not parse (%d records): %v\n%s", len(recs), err, out)
			}

			out, err = runCLI(flag, path, "-parallel", "1")
			if err != nil {
				t.Fatalf("table: %v", err)
			}
			if strings.TrimSpace(out) == "" {
				t.Error("empty table output")
			}
		})
	}
}

// TestSpecErrors: a missing file, an unknown field, trailing data and a
// spec that fails validation are all errors, never a silent run.
func TestSpecErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	for _, spec := range cliSpecs {
		kind, flag, doc := spec.kind, spec.flag, spec.doc
		if _, err := runCLI(flag, missing); err == nil {
			t.Errorf("%s: missing spec file accepted", kind)
		}
		typo := writeFile(t, "typo.json", strings.Replace(doc, `{`, `{"nmae":"x",`, 1))
		if _, err := runCLI(flag, typo); err == nil || !strings.Contains(err.Error(), "nmae") {
			t.Errorf("%s: unknown field: err = %v", kind, err)
		}
		trailing := writeFile(t, "trailing.json", doc+"\n{}")
		if _, err := runCLI(flag, trailing); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s: trailing data: err = %v", kind, err)
		}
	}
	bad := writeFile(t, "bad.json", `{"machines":[{"config":{"Topology":"R(4)","BandwidthsGBps":[250]}}],"workloads":[{"kind":"all_reduce","iterations":-3}]}`)
	if _, err := runCLI("-sweep", bad); err == nil {
		t.Error("negative iterations accepted")
	}
}

// TestConfigIsStrict: a misspelled MachineConfig field in -config fails
// instead of silently running on defaults.
func TestConfigIsStrict(t *testing.T) {
	good := writeFile(t, "good.json", `{"Topology":"R(4)","BandwidthsGBps":[250],"Scheduler":"themis","PeakTFLOPS":1}`)
	out, err := runCLI("-config", good, "-size", "1048576")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "machine:   R(4)") {
		t.Errorf("single-run report:\n%s", out)
	}
	typo := writeFile(t, "typo.json", `{"Topology":"R(4)","BandwidthsGBps":[250],"Schedular":"themis","PeakTflops":1}`)
	if _, err := runCLI("-config", typo, "-size", "1048576"); err == nil || !strings.Contains(err.Error(), "Schedular") {
		t.Errorf("misspelled config field: err = %v", err)
	}
	trailing := writeFile(t, "trailing.json", `{"Topology":"R(4)","BandwidthsGBps":[250]} {}`)
	if _, err := runCLI("-config", trailing, "-size", "1048576"); err == nil {
		t.Error("config with trailing data accepted")
	}
}
