package main

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the measured child, as the bench
// binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at 1% of its duration for one round plus
// the traced runs, checks the outputs against the pinned digests, and
// requires every metric BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	golden, err := readGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if golden.lookup(1991, 0.01) == nil {
		t.Fatal("golden.json pins no digests for seed 1991 at scale 0.01")
	}
	r, err := newRunner(1991, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	rep := fullRun(r, golden, names, 1)

	if want := append(slices.Clone(names), names...); !slices.Equal(rep.Order, want) {
		t.Errorf("run order %v, want %v", rep.Order, want)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for _, n := range names {
		wr := rep.Workloads[n]
		if wr == nil {
			t.Fatalf("%s: no report", n)
		}
		for _, f := range wr.Failures {
			t.Error(f)
		}
		for _, m := range spec.EndToEnd {
			got, ok := wr.result(false).Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !finite(got.Value) || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", n, m.Name, got, m.Unit)
			}
		}
		traced := wr.result(true).Metrics
		for _, m := range spec.PerLayer {
			got, ok := traced[m.Name]
			if !ok || got.Unit != m.Unit || !finite(got.Value) {
				t.Errorf("%s: per-layer %s = %+v, want a finite value in %s", n, m.Name, got, m.Unit)
			}
		}
		var cpu, allocs float64
		for name, v := range wr.Layers {
			switch {
			case strings.HasSuffix(name, ".cpu_share"):
				cpu += v
			case strings.HasSuffix(name, ".allocs_per_event"):
				allocs += v
			}
		}
		if wr.Layers["profile_samples"] > 0 && math.Abs(cpu-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %.4f, want 1", n, cpu)
		}
		// At 1% scale the sampled profile holds only a few hundred samples
		// of small objects, each standing for hundreds of allocations, so
		// the sum is held to 10% here; full-scale runs agree within 1%.
		if whole := wr.Metrics["allocs_per_event"].Median; math.Abs(allocs-whole) > 0.1*whole {
			t.Errorf("%s: per-layer allocs/event sum to %.4f, whole run %.4f", n, allocs, whole)
		}
	}
}

// TestBenchmarkJSON requires BENCHMARK.json to list exactly the
// workloads and metrics the benchmark reports, with the same units and
// directions.
func TestBenchmarkJSON(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads %v, want %s at %d", names, w.name, i)
		}
	}
	same := func(kind string, got []specMetric, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %s %s %s, want %s %s %s",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4) on the same inputs.
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
