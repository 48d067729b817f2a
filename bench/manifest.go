package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is a metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the program reads: the file is the
// one place where the measured seconds, the metric names, their units and
// their bounds are written down, and every run is checked against it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(path string) (manifest, error) {
	var man manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return man, err
	}
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("%s: %w", path, err)
	}
	if len(man.Workloads) != len(specs) {
		return man, fmt.Errorf("%s declares %d workloads, the program has %d", path, len(man.Workloads), len(specs))
	}
	for i, w := range man.Workloads {
		if w.Name != specs[i].name {
			return man, fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, specs[i].name)
		}
	}
	return man, nil
}

// checkMetrics makes sure a run reports exactly the metrics declared, in the
// units declared.
func checkMetrics(m metrics, declared []metricDef) error {
	for _, d := range declared {
		if got, ok := m[d.Name]; !ok {
			return fmt.Errorf("metric %s has no value", d.Name)
		} else if got.Unit != d.Unit {
			return fmt.Errorf("metric %s is in %s, declared %s", d.Name, got.Unit, d.Unit)
		}
	}
	if len(m) != len(declared) {
		return fmt.Errorf("the run produced %d metrics, %d are declared", len(m), len(declared))
	}
	return nil
}
