package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric as BENCHMARK.json declares it. The file is the
// only list of metrics there is: the program reads it at start, prints a
// value only under a name it declares, and refuses to finish a run that
// measured something it does not. bench/README.md has the glossary.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: the share of the parent's median it may worsen by
}

// isTime reports whether the metric is a duration. The driver's result
// line must carry every declared name, on every workload; a count or a
// ratio of a layer the workload does not have goes into it as 0 (nothing
// happened), a duration never does: it has to have been measured.
func (d metricDef) isTime() bool {
	switch d.Unit {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(specs) {
		return nil, fmt.Errorf("%s declares %d workloads, the program has %d", path, len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, specs[i].name)
		}
	}
	return &m, nil
}

// undeclared returns a name in values that defs does not declare, if any.
func undeclared(defs []metricDef, values map[string]float64) string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
	}
	for name := range values {
		if !known[name] {
			return name
		}
	}
	return ""
}
