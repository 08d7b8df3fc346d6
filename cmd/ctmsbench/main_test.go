package main

import (
	"strings"
	"testing"
)

// TestLines checks the count record's text form, the one that
// testdata/counts.golden pins: one sorted line per field, every digit
// kept, and a sharded row that left its serial fingerprint shown as a
// line of its own, so the golden fails on it.
func TestLines(t *testing.T) {
	got := strings.Join(counts{
		"topo 16 rings × 4 workers.identical": 0,
		"matrix.sim_seconds":                  2410.415000001,
		"matrix.events":                       29896329,
		"experiment E9.ok":                    1,
	}.lines(), "\n")
	want := strings.Join([]string{
		"experiment E9.ok = 1",
		"matrix.events = 29896329",
		"matrix.sim_seconds = 2410.415000001",
		"topo 16 rings × 4 workers.identical = 0",
	}, "\n")
	if got != want {
		t.Errorf("lines =\n%s\nwant\n%s", got, want)
	}
}
