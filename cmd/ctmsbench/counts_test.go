//go:build !race

package main

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/sim"
)

// TestCountRecord pins the exact counts of the smoke-scale matrix, the
// E20 meshes of grid sides 4 and 8 and the E19 population rows: matrix
// events and simulated seconds, every experiment's verdict, mesh rounds,
// skips, forwarded frames, ceiling and identity, and population
// admissions. It runs record, the code path ctmsbench itself runs, so
// the golden holds what `ctmsbench -minutes 0.5 -topo 4,8 -population`
// prints. The matrix's events and simulated seconds are read from the
// process-wide sim counters, so no other test in this package may run
// a simulation beside it (none uses t.Parallel). The record takes a few
// seconds, and half a minute under the race detector, whose
// instrumentation moves no count, so this file is built without it;
// make bench-check runs it.
func TestCountRecord(t *testing.T) {
	scale := core.Scale{Duration: sim.Minute / 2}
	_, rec, err := record(core.Experiments(), scale, runtime.GOMAXPROCS(0), []int{4, 8}, true)
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/counts.golden", []byte(strings.Join(rec.lines(), "\n")+"\n"))
}
