package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// specPath is BENCHMARK.json as seen from this directory, where
// `go run -C bench .` and `go test` both execute.
const specPath = "../BENCHMARK.json"

// metricSpec is one declared metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen (zero for
// per-layer metrics, which carry no verdict).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json, the single registry of workload and
// metric names: the harness takes units, directions and bounds from it
// and refuses to emit a metric it does not declare.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values is a set of measured metrics by name.
type values map[string]float64

// merge copies src into v; a name measured twice is a harness bug.
func (v values) merge(src values) {
	for name, x := range src {
		if _, dup := v[name]; dup {
			panic("bench: metric " + name + " measured twice")
		}
		v[name] = x
	}
}

// conform checks that got holds exactly the metrics decl declares.
func conform(decl []metricSpec, got values) error {
	declared := make(map[string]bool, len(decl))
	var missing, extra []string
	for _, m := range decl {
		declared[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
	}
	for name := range got {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) == 0 {
		return nil
	}
	sort.Strings(extra)
	return fmt.Errorf("metrics do not match BENCHMARK.json: not measured %v, not declared %v", missing, extra)
}
