package main

import (
	"strings"
	"testing"
)

// gateRecord is a small, fully populated BENCH.json record: one matrix
// total, one topo row, one population rate and one lint tier, so every
// rule of the -compare gate has a row to bite on.
func gateRecord() benchRecord {
	return benchRecord{
		ScaleMinutes: 0.35,
		SimSeconds:   10,
		SimSecPerSec: 200,
		Mallocs:      1000,
		TopoScaling: []topoScaling{
			{Rings: 16, Workers: 4, SimSecPerSec: 50, AllocsPerFrame: 2, Identical: true},
		},
		Population: []populationRow{{Rate: 4, Arrivals: 10, Admitted: 8, Rejected: 2}},
		Lint:       []lintRow{{Tier: "syntactic", WallSeconds: 1}},
	}
}

func TestCompareBench(t *testing.T) {
	cases := []struct {
		name string
		edit func(base, rec *benchRecord)
		want []string // one substring per expected problem, in order
	}{
		{name: "same record passes", edit: func(base, rec *benchRecord) {}},
		{
			name: "baseline row missing from the run is skipped",
			edit: func(base, rec *benchRecord) {
				rec.TopoScaling, rec.Population, rec.Lint = nil, nil, nil
			},
		},
		{
			name: "scale_minutes mismatch skips population counts",
			edit: func(base, rec *benchRecord) {
				rec.ScaleMinutes = 0.5
				rec.Population[0].Arrivals = 99
			},
		},
		{
			name: "nonpositive baseline sim_seconds",
			edit: func(base, rec *benchRecord) { base.SimSeconds = 0 },
			want: []string{"baseline sim_seconds is 0"},
		},
		{
			name: "nonpositive run sim_seconds",
			edit: func(base, rec *benchRecord) { rec.SimSeconds = -1 },
			want: []string{"this run's sim_seconds is -1"},
		},
		{
			// Identity is gated once, in realMain, before -compare runs.
			name: "identical:false is not compareBench's check",
			edit: func(base, rec *benchRecord) { rec.TopoScaling[0].Identical = false },
		},
		{
			name: "raw speed is not gated",
			edit: func(base, rec *benchRecord) {
				rec.SimSecPerSec = 1
				rec.TopoScaling[0].SimSecPerSec = 1
			},
		},
		{
			name: "mallocs at +10% pass",
			edit: func(base, rec *benchRecord) { rec.Mallocs = 1100 },
		},
		{
			name: "mallocs past +10% fail",
			edit: func(base, rec *benchRecord) { rec.Mallocs = 1101 },
			want: []string{"mallocs 1101 exceeds baseline 1000"},
		},
		{
			name: "allocs per frame at +10% pass",
			edit: func(base, rec *benchRecord) { rec.TopoScaling[0].AllocsPerFrame = 2.2 },
		},
		{
			name: "allocs per frame past +10% fail",
			edit: func(base, rec *benchRecord) { rec.TopoScaling[0].AllocsPerFrame = 2.21 },
			want: []string{"16-ring mesh at 4 workers: 2.21 allocs per forwarded frame exceeds baseline 2.00"},
		},
		{
			name: "lint at 2x+0.5s passes",
			edit: func(base, rec *benchRecord) { rec.Lint[0].WallSeconds = 2.5 },
		},
		{
			name: "lint past 2x+0.5s fails",
			edit: func(base, rec *benchRecord) { rec.Lint[0].WallSeconds = 2.51 },
			want: []string{"lint syntactic tier took 2.51s"},
		},
		{
			name: "population count mismatch",
			edit: func(base, rec *benchRecord) { rec.Population[0].Admitted = 7 },
			want: []string{"population 4/s: counts 10/7/2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, rec := gateRecord(), gateRecord()
			tc.edit(&base, &rec)
			got := compareBench(base, rec)
			if len(got) != len(tc.want) {
				t.Fatalf("compareBench = %q, want %d problem(s) matching %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("problem %d = %q, want it to contain %q", i, got[i], w)
				}
			}
		})
	}
}
