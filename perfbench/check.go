package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"

	astrasim "repro"
)

// reference holds the committed simulated outputs, keyed by workload and,
// for the design-space loop, by candidate and workload. The dse-loop
// entries cover every candidate the seed can draw, so any seed is checked.
type reference map[string]json.RawMessage

func loadReference(path string) (reference, error) {
	if path == "" {
		return nil, fmt.Errorf("no reference file given (-ref)")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parse reference %s: %w", path, err)
	}
	return ref, nil
}

// check reports whether got, encoded as JSON, equals the reference entry.
func (ref reference) check(key string, got any) error {
	want, ok := ref[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", key)
	}
	enc, err := json.Marshal(got)
	if err != nil {
		return fmt.Errorf("%s: encode output: %w", key, err)
	}
	var g, w any
	if err := json.Unmarshal(enc, &g); err != nil {
		return fmt.Errorf("%s: decode output: %w", key, err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("%s: decode reference: %w", key, err)
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("%s: simulated output drifted: got %s, want %s", key, enc, want)
	}
	return nil
}

// writeReference simulates every referenced output through the public
// facade and writes the reference file, one entry per line.
func writeReference(out io.Writer) error {
	entries := map[string]any{}
	mae, err := fig4MAE()
	if err != nil {
		return err
	}
	entries["fig4_mae_pct"] = mae

	m, err := astrasim.NewMachine(astrasim.MachineConfig{Topology: gptTopology, BandwidthsGBps: gptGBps})
	if err != nil {
		return err
	}
	rep, err := m.Run(astrasim.GPT3())
	if err != nil {
		return err
	}
	entries[gptRef] = outputOf(rep)

	res, err := astrasim.RunCluster(clusterSpec(1), astrasim.ClusterOptions{Slowdowns: true})
	if err != nil {
		return err
	}
	entries[clusterRef], entries[clusterRef+"|slowdown"] = clusterOutputOf(res)

	for _, shape := range dseShapes {
		for _, gbps := range dseGBps[dimsOf(shape)] {
			c := candidate{shape, gbps}
			m, err := astrasim.NewMachine(c.config())
			if err != nil {
				return fmt.Errorf("%s: %w", c.key(), err)
			}
			est, err := dseScreen(m)
			if err != nil {
				return fmt.Errorf("%s: %w", c.key(), err)
			}
			entries[c.key()+"|est"] = est
			for _, w := range dseMix {
				// A fresh machine per workload: outputs must not depend
				// on what the machine's collective memo has seen.
				m, err := astrasim.NewMachine(c.config())
				if err != nil {
					return err
				}
				rep, err := m.Run(w.w())
				if err != nil {
					return fmt.Errorf("%s|%s: %w", c.key(), w.name, err)
				}
				entries[c.key()+"|"+w.name] = outputOf(rep)
			}
		}
	}

	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		kj, _ := json.Marshal(k)
		vj, err := json.Marshal(entries[k])
		if err != nil {
			return err
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%s: %s%s\n", kj, vj, sep)
	}
	buf.WriteString("}\n")
	_, err = out.Write(buf.Bytes())
	return err
}
