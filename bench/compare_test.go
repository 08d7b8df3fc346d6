package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const compareSpec = `{
  "workloads": [{"name": "w"}],
  "end_to_end": [
    {"name": "speed", "unit": "sim_s/s", "better": "higher", "bound": 0.1},
    {"name": "cost", "unit": "s", "better": "lower", "bound": 0.25}
  ]
}`

func compareReport(speed, cost, errorRate, events float64, dig string) *report {
	layers := map[string]float64{}
	for _, c := range exactCounts {
		layers[c.name] = 1
	}
	layers["sim.events"] = events
	return &report{
		Seed:  1991,
		Scale: 1,
		Workloads: map[string]*workloadReport{"w": {
			ErrorRate: errorRate,
			Metrics:   map[string]stat{"speed": {Median: speed}, "cost": {Median: cost}},
			Layers:    layers,
			Digest:    dig,
		}},
	}
}

func TestCompareReports(t *testing.T) {
	var spec benchmarkSpec
	if err := json.Unmarshal([]byte(compareSpec), &spec); err != nil {
		t.Fatal(err)
	}
	base := compareReport(100, 2, 0, 5000, "abc")
	for _, tc := range []struct {
		name string
		cand func() *report
		want string // substring of the one expected violation; empty for none
	}{
		{"identical", func() *report { return compareReport(100, 2, 0, 5000, "abc") }, ""},
		{"higher-better at its bound", func() *report { return compareReport(90, 2, 0, 5000, "abc") }, ""},
		{"higher-better past its bound", func() *report { return compareReport(89.99, 2, 0, 5000, "abc") }, "w: speed"},
		{"lower-better at its bound", func() *report { return compareReport(100, 2.5, 0, 5000, "abc") }, ""},
		{"lower-better past its bound", func() *report { return compareReport(100, 2.5001, 0, 5000, "abc") }, "w: cost"},
		{"improvements pass", func() *report { return compareReport(1000, 0.1, 0, 5000, "abc") }, ""},
		{"error rate rises", func() *report { return compareReport(100, 2, 0.2, 5000, "abc") }, "error_rate rose"},
		{"work count differs", func() *report { return compareReport(100, 2, 0, 5001, "abc") }, "sim.events"},
		{"digest differs", func() *report { return compareReport(100, 2, 0, 5000, "abd") }, "output digest"},
		{"missing workload", func() *report {
			r := compareReport(100, 2, 0, 5000, "abc")
			r.Workloads = map[string]*workloadReport{}
			return r
		}, "w: missing"},
		{"missing metric", func() *report {
			r := compareReport(100, 2, 0, 5000, "abc")
			delete(r.Workloads["w"].Metrics, "cost")
			return r
		}, "cost missing"},
		{"missing count", func() *report {
			r := compareReport(100, 2, 0, 5000, "abc")
			delete(r.Workloads["w"].Layers, "router.forwarded_frames")
			return r
		}, "router.forwarded_frames"},
		{"different seed", func() *report {
			r := compareReport(100, 2, 0, 5000, "abc")
			r.Seed = 7
			return r
		}, "seed/scale differ"},
	} {
		bad := compareReports(&spec, base, tc.cand())
		switch {
		case tc.want == "" && len(bad) > 0:
			t.Errorf("%s: unexpected violations %q", tc.name, bad)
		case tc.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], tc.want)):
			t.Errorf("%s: violations %q, want one naming %q", tc.name, bad, tc.want)
		}
	}
}

// TestCompareSameFile compares a report file with itself through the
// command line, which must pass.
func TestCompareSameFile(t *testing.T) {
	dir := t.TempDir()
	specPath, repPath := filepath.Join(dir, "spec.json"), filepath.Join(dir, "a.json")
	if err := os.WriteFile(specPath, []byte(compareSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(repPath, compareReport(100, 2, 0, 5000, "abc")); err != nil {
		t.Fatal(err)
	}
	if code := realMain([]string{"-compare", "-benchmark", specPath, repPath, repPath}); code != 0 {
		t.Fatalf("-compare of a report with itself exited %d, want 0", code)
	}
}
