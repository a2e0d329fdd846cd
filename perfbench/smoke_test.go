package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires a correct run that reports its whole declared metric set.
func TestSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 1, trace: trace, tiny: true, scratch: t.TempDir()}
			out, err := execute(run, cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if len(out.problems) > 0 || out.failed > 0 {
				t.Fatalf("%s trace=%t: %d failed: %v", name, trace, out.failed, out.problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.m) != len(want) {
				t.Fatalf("%s trace=%t: %d metrics, declared %d", name, trace, len(out.m), len(want))
			}
			if !trace {
				for _, s := range endToEnd {
					if out.m[s.name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, s.name, out.m[s.name].Value)
					}
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesDeclaredMetrics keeps BENCHMARK.json and the
// benchmark's declared workloads and metrics in step.
func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var bj struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench declares %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, perfbench %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
