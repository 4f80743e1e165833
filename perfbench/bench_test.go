package main

import (
	"encoding/json"
	"os"
	"testing"

	"rhythm/internal/experiments"
)

// benchmarkSpec is the part of BENCHMARK.json the result lines must match.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func smallOptions(name string, workers int) options {
	return options{
		workload:  name,
		seed:      goldenSeed,
		seconds:   1,
		workers:   workers,
		setupReps: 1,
		minRounds: 1,
		small:     true,
		root:      "..",
	}
}

// checkMetrics asserts that a result reports exactly the spec's metrics,
// with their units.
func checkMetrics(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	got := make(map[string]string)
	for name, m := range res.metrics {
		if m.label != labelInfo {
			got[name] = m.unit
		}
	}
	for _, m := range want {
		unit, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, unit, m.Unit)
		}
		delete(got, m.Name)
	}
	if extra := sortedKeys(got); len(extra) > 0 {
		t.Errorf("metrics not in BENCHMARK.json: %v", extra)
	}
}

// TestWorkloads runs every workload at the small scale with one and two
// workers and traced. The simulated outcomes must not depend on the worker
// count or on observation, every check must pass, and the result lines
// must carry exactly the metrics BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); len(got) != len(names) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", got, names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			setup, ok := workloads[name]
			if !ok {
				t.Fatalf("BENCHMARK.json workload %q is not implemented", name)
			}
			one, err := measure(setup, smallOptions(name, 1))
			if err != nil {
				t.Fatal(err)
			}
			two, err := measure(setup, smallOptions(name, 2))
			if err != nil {
				t.Fatal(err)
			}
			opts := smallOptions(name, 2)
			opts.trace = true
			opts.workdir = t.TempDir()
			traced, err := measureTraced(setup, opts)
			if err != nil {
				t.Fatal(err)
			}
			for label, res := range map[string]*result{"1 worker": one, "2 workers": two, "traced": traced} {
				if res.failed != 0 || res.attempted == 0 {
					t.Errorf("%s: %d of %d checks failed: %v", label, res.failed, res.attempted, res.problems)
				}
			}
			if one.digest != two.digest {
				t.Errorf("digest differs between 1 and 2 workers: %s vs %s", one.digest, two.digest)
			}
			if traced.digest != two.digest {
				t.Errorf("digest differs between traced and untraced runs: %s vs %s", traced.digest, two.digest)
			}
			checkMetrics(t, two, spec.EndToEnd)
			checkMetrics(t, traced, spec.PerLayer)
		})
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 10.20s, 97.79% of 10.43s total
      flat  flat%   sum%        cum   cum%
     0.01s 0.096% 0.096%     10.20s 97.79%  rhythm/internal/engine.(*Engine).RunUntil
     6.50s 62.32% 62.42%      6.60s 63.28%  rhythm/internal/sim.LognormalDraws
     0.30s  2.88% 65.30%      0.40s  3.84%  rhythm/internal/queueing.Station.At (inline)
`)
	got := parseTop(out)
	want := map[string]float64{
		"rhythm/internal/engine.Engine.RunUntil": 0.9779,
		"rhythm/internal/sim.LognormalDraws":     0.6328,
		"rhythm/internal/queueing.Station.At":    0.0384,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for fn, share := range want {
		if d := got[fn] - share; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: share %v, want %v", fn, got[fn], share)
		}
	}
}

func TestViolations(t *testing.T) {
	for reason, want := range map[string]int{
		"worst_p99=0.0123s violations=7": 7,
		"worst_p99=0.0123s violations=0": 0,
		"no count":                       0,
	} {
		if got := violations(reason); got != want {
			t.Errorf("violations(%q) = %d, want %d", reason, got, want)
		}
	}
}

func TestUnsignedZeros(t *testing.T) {
	tab := &experiments.Table{Columns: []string{"a"}, Rows: [][]string{
		{"-0.0%", "-0.000", "-0", "-13.9%", "-0.05%", "-", "0.0%"},
	}}
	want := []string{"0.0%", "0.000", "0", "-13.9%", "-0.05%", "-", "0.0%"}
	got := unsignedZeros(tab).Rows[0]
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d: %q, want %q", i, got[i], want[i])
		}
	}
	if tab.Rows[0][0] != "-0.0%" {
		t.Errorf("unsignedZeros changed its input: %q", tab.Rows[0][0])
	}
}

func TestCompareRounds(t *testing.T) {
	a := &roundOut{digest: "fig13 x", rawDigest: "fig13 y"}
	sign := &roundOut{digest: "fig13 x", rawDigest: "fig13 z"}
	other := &roundOut{digest: "fig13 w", rawDigest: "fig13 z"}
	res := newResult()
	compareRounds("sign only", a, sign, res)
	if res.failed != 0 || len(res.info) != 1 {
		t.Errorf("a sign-of-zero difference: failed %d, info %q", res.failed, res.info)
	}
	compareRounds("other outcome", a, other, res)
	if res.failed != 1 {
		t.Errorf("a different outcome did not fail: failed %d", res.failed)
	}
}
