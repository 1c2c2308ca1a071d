package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// short shrinks a workload to test size: the same job counts and request
// mix on smaller matrices and a handful of operations.
func (w workloadSpec) short() workloadSpec {
	if w.kind == kindBatch {
		w.n, w.nb = w.n/4, w.nb/4
	}
	w.warmOps = 2
	w.tracedOps = 8
	return w
}

// BENCHMARK.json is the driver's copy of defs.go; the two must agree.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command %v, want %v", spec.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(spec.Paths, want) {
		t.Errorf("paths %v, want %v", spec.Paths, want)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, defs.go has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: %+v, defs.go has %s: %s", i, got, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, defs.go has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if got := spec.EndToEnd[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, defs.go has %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, defs.go has %d", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		if got := spec.PerLayer[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: %+v, defs.go has %+v", i, got, d)
		}
		if seen[d.name] {
			t.Errorf("%s is defined twice", d.name)
		}
		seen[d.name] = true
	}
}
