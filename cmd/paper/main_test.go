package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("paper %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// decodeExperiment decodes one -json document into v and checks its name.
func decodeExperiment(t *testing.T, out, name string, v any) {
	t.Helper()
	var doc struct {
		Experiment string          `json:"experiment"`
		Result     json.RawMessage `json:"result"`
	}
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("-json output does not decode: %v\n%s", err, out)
	}
	if doc.Experiment != name {
		t.Errorf("experiment = %q, want %q", doc.Experiment, name)
	}
	dec = json.NewDecoder(bytes.NewReader(doc.Result))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s result does not decode: %v", name, err)
	}
}

// TestJSONMatchesExperiments: the -json documents carry exactly what the
// experiments package computes.
func TestJSONMatchesExperiments(t *testing.T) {
	o := experiments.Options{Exec: sweep.Exec{Workers: 1}}

	var fig11 experiments.Fig11Result
	decodeExperiment(t, runCLI(t, "-exp", "fig11", "-json", "-parallel", "1"), "fig11", &fig11)
	want11, err := experiments.Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig11.Bars) == 0 || !reflect.DeepEqual(&fig11, want11) {
		t.Errorf("fig11 -json differs from experiments.Fig11:\n%+v\n%+v", fig11, *want11)
	}

	var pools experiments.PoolDesignResult
	decodeExperiment(t, runCLI(t, "-exp", "pools", "-json"), "pools", &pools)
	wantPools, err := experiments.PoolDesigns(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools.Rows) == 0 || !reflect.DeepEqual(&pools, wantPools) {
		t.Errorf("pools -json differs from experiments.PoolDesigns:\n%+v\n%+v", pools, *wantPools)
	}
}

// TestTables: the human tables print their headers, and bad command lines
// fail without output.
func TestTables(t *testing.T) {
	if out := runCLI(t, "-exp", "pools"); !strings.Contains(out, "## Extension — Fig. 5 pool architectures") {
		t.Errorf("pools table lacks its header:\n%s", out)
	}
	for _, args := range [][]string{{"-exp", "fig12"}, {"-bogus"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil || stdout.Len() > 0 {
			t.Errorf("paper %s: err %v, stdout %q", strings.Join(args, " "), err, stdout.String())
		}
	}
}
