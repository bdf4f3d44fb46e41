package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// perfbench's metric and workload tables must be the ones
// BENCHMARK.json declares, in the same order.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)

	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Fatalf("workloads: BENCHMARK.json %v, perfbench %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workloads: BENCHMARK.json %v, perfbench %v", got, want)
			}
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "b", Start: 3, End: 6}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 8, End: 9},
		{ID: 5, Parent: 2, Name: "a.inner", Start: 2, End: 3},
	}}
	self := tr.selfTimes()
	for i, want := range []float64{10 - 6, 3 - 1, 3, 1, 1} {
		if self[i] != want {
			t.Errorf("self[%s] = %v, want %v", tr.spans[i].Name, self[i], want)
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.call("child", func() {})
	tr.end(root)
	tr.call("second", func() {})
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	child, second := tr.spans[1], tr.spans[2]
	if child.Parent != tr.spans[0].ID || child.Trace != tr.spans[0].Trace {
		t.Errorf("child not under root: %+v", child)
	}
	if second.Parent != 0 || second.Trace == child.Trace {
		t.Errorf("second root joined the first trace: %+v", second)
	}
	var nilTracer *tracer
	if i := nilTracer.begin("x"); i != -1 {
		t.Error("nil tracer recorded a span")
	}
	nilTracer.end(-1)
}
