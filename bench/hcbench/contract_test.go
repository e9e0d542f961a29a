package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness in
// step: same workloads, same metric names, units and directions in the same
// order, run_seconds equal to the default measuring time.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		RunSeconds float64  `json:"run_seconds"`
		Paths      []string `json:"paths"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, harness default %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, harness has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), harness has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d metrics listed, harness reports %d", kind, len(listed), len(defs))
		}
		for i, m := range listed {
			better := "lower"
			if defs[i].higher {
				better = "higher"
			}
			if m.Name != defs[i].name || m.Unit != defs[i].unit || m.Better != better {
				t.Errorf("%s %d: listed %+v, harness reports %+v", kind, i, m, defs[i])
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if _, err := loadBounds(filepath.Join("..", "..", "BENCHMARK.json")); err != nil {
		t.Error(err)
	}
}
