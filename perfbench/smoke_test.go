package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchSpec is the part of ../BENCHMARK.json the benchmark must agree with.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny shrinks a workload's phases so a whole run takes a moment.
func tiny(sz sizing) sizing {
	return sizing{warm: sz.warm / 10, window: sz.window / 50, drain: sz.drain}
}

// TestSmoke runs every workload at a tiny length, end to end and traced,
// and checks that each emits exactly the metrics BENCHMARK.json names,
// with their units, and passes its output checks.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalSorted(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", got, want)
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			e, err := endToEndRun(w, 7, time.Millisecond, tiny(w.size))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "end_to_end", e, spec.EndToEnd)
			tr, err := tracedRun(w, 7, time.Millisecond, tiny(w.size))
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, "per_layer", tr, spec.PerLayer)
		})
	}
}

func checkReport(t *testing.T, kind string, r report, want []struct{ Name, Unit string }) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", kind, r.Correct, r.Attempted, r.Failed, r.notes)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json names %d", kind, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", kind, m.Name, got, m.Unit)
		}
	}
	if kind == "end_to_end" {
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
			}
		}
	}
}

func equalSorted(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
