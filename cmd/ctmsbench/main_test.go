package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// gateRecord is a small BENCH.json record with one row of each kind:
// the matrix totals, an experiment, a topo mesh, a population rate and
// a lint tier, so every part of the -compare gate has a field to bite on.
func gateRecord() benchRecord {
	return benchRecord{
		Rows: []benchRow{
			{"matrix", map[string]float64{"scale_minutes": 0.5, "sim_seconds": 10, "events": 29896329, "failures": 0}},
			{"experiment E9", map[string]float64{"ok": 1, "metrics": 4}},
			{"topo 16 rings × 4 workers", map[string]float64{"forwarded_frames": 100, "rounds": 50, "rounds_skipped": 20, colIdentical: 1}},
			{"population 4/s", map[string]float64{"arrivals": 10, "admitted": 8, "rejected": 2, "shed": 0, "departed": 5, "latency_samples": 900}},
			{"lint syntactic", map[string]float64{colWall: 1}},
		},
		LintHost: "linux/amd64 gomaxprocs=2",
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
			name: "events off by one",
			edit: func(base, rec *benchRecord) { rec.Rows[0].Values["events"]++ },
			want: []string{"matrix.events = 29896330, baseline 29896329"},
		},
		{
			name: "sim_seconds off by one nanosecond",
			edit: func(base, rec *benchRecord) { rec.Rows[0].Values["sim_seconds"] += 1e-9 },
			want: []string{"matrix.sim_seconds = 10.000000001, baseline 10"},
		},
		{
			name: "nonpositive baseline sim_seconds",
			edit: func(base, rec *benchRecord) { base.Rows[0].Values["sim_seconds"] = 0 },
			want: []string{"matrix.sim_seconds = 10, baseline 0"},
		},
		{
			name: "nonpositive run sim_seconds",
			edit: func(base, rec *benchRecord) { rec.Rows[0].Values["sim_seconds"] = -1 },
			want: []string{"matrix.sim_seconds = -1, baseline 10"},
		},
		{
			name: "experiment verdict flips",
			edit: func(base, rec *benchRecord) { rec.Rows[1].Values["ok"] = 0 },
			want: []string{"experiment E9.ok = 0, baseline 1"},
		},
		{
			name: "topo rounds_skipped off by one",
			edit: func(base, rec *benchRecord) { rec.Rows[2].Values["rounds_skipped"]-- },
			want: []string{"topo 16 rings × 4 workers.rounds_skipped = 19, baseline 20"},
		},
		{
			// Identity is gated once, in realMain, before -compare runs.
			name: "identical:false is not compareBench's check",
			edit: func(base, rec *benchRecord) { rec.Rows[2].Values[colIdentical] = 0 },
		},
		{
			name: "population departed off by one",
			edit: func(base, rec *benchRecord) { rec.Rows[3].Values["departed"]++ },
			want: []string{"population 4/s.departed = 6, baseline 5"},
		},
		{
			name: "population count mismatch",
			edit: func(base, rec *benchRecord) { rec.Rows[3].Values["admitted"] = 7 },
			want: []string{"population 4/s.admitted = 7, baseline 8"},
		},
		{
			name: "baseline row missing from the run fails",
			edit: func(base, rec *benchRecord) { rec.Rows = rec.Rows[:4] },
			want: []string{"lint syntactic.wall_seconds: in the baseline, missing from this run"},
		},
		{
			name: "run row missing from the baseline fails",
			edit: func(base, rec *benchRecord) { base.Rows = append(base.Rows[:2], base.Rows[3:]...) },
			want: []string{
				"topo 16 rings × 4 workers.forwarded_frames: in this run, missing from the baseline",
				"topo 16 rings × 4 workers.rounds: in this run, missing from the baseline",
				"topo 16 rings × 4 workers.rounds_skipped: in this run, missing from the baseline",
			},
		},
		{
			name: "scale_minutes mismatch fails",
			edit: func(base, rec *benchRecord) { rec.Rows[0].Values["scale_minutes"] = 4 },
			want: []string{"matrix.scale_minutes = 4, baseline 0.5"},
		},
		{
			// Host speed moves wall times, never a count: a faster lint
			// tier or another host's label passes.
			name: "raw speed is not gated",
			edit: func(base, rec *benchRecord) {
				rec.Rows[4].Values[colWall] = 0.01
				rec.LintHost = "darwin/arm64 gomaxprocs=10"
			},
		},
		{
			name: "lint at 2x+0.5s passes",
			edit: func(base, rec *benchRecord) { rec.Rows[4].Values[colWall] = 2.5 },
		},
		{
			name: "lint past 2x+0.5s fails",
			edit: func(base, rec *benchRecord) { rec.Rows[4].Values[colWall] = 2.51 },
			want: []string{"lint syntactic.wall_seconds = 2.51s, more than double the baseline 1.00s"},
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

// TestBenchRecordRoundTrip checks that writing a record to BENCH.json and
// reading it back loses no digit the exact gate compares.
func TestBenchRecordRoundTrip(t *testing.T) {
	rec := gateRecord()
	rec.Rows[0].Values["sim_seconds"] = 2410.415000001
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back benchRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if problems := compareBench(rec, back); len(problems) > 0 {
		t.Fatalf("round trip moved fields: %q", problems)
	}
}
