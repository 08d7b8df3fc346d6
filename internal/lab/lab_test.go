package lab_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/sim"
)

func TestMapCollectsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		p := lab.New(workers)
		got := lab.Map(p, 37, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: index %d got %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	if w := lab.New(0).Workers(); w < 1 {
		t.Fatalf("default pool has %d workers", w)
	}
	if w := lab.New(-3).Workers(); w < 1 {
		t.Fatalf("negative request gave %d workers", w)
	}
	if w := lab.New(5).Workers(); w != 5 {
		t.Fatalf("explicit request gave %d workers, want 5", w)
	}
}

func TestRunZeroJobs(t *testing.T) {
	lab.New(4).Run(0, func(int) { t.Fatal("job ran for n=0") })
	lab.New(4).Run(-1, func(int) { t.Fatal("job ran for n<0") })
}

func TestRunPanicPropagatesLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "job 3") {
			t.Fatalf("want the lowest-index panic (job 3), got %q", msg)
		}
	}()
	lab.New(4).Run(16, func(i int) {
		if i >= 3 && i%2 == 1 {
			panic(fmt.Sprintf("boom %d", i))
		}
	})
}

// TestPoolDeterminism runs the same experiment serially and across eight
// workers: the Comparison metric tables must be identical, because each
// run owns its scheduler and RNG and results are collected by index.
func TestPoolDeterminism(t *testing.T) {
	e, ok := core.ExperimentByID("E4")
	if !ok {
		t.Fatal("E4 missing")
	}
	scale := core.Scale{Duration: 10 * sim.Second}
	render := func(workers int) []string {
		out := lab.Map(lab.New(workers), 4, func(i int) string {
			return e.Run(scale).Render()
		})
		return out
	}
	serial := render(1)
	parallel := render(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("run %d differs between serial and 8 workers:\n--- serial ---\n%s--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// TestLabPoolRace is the repo's concurrency stress test: 32 scaled-down
// experiments across 8 workers. It exists to give `go test -race` real
// goroutine interleavings to inspect — before the lab, nothing in the
// repo was concurrent.
func TestLabPoolRace(t *testing.T) {
	exps := core.Experiments()
	if len(exps) == 0 {
		t.Fatal("empty matrix")
	}
	const jobs = 32
	scale := core.Scale{Duration: 2 * sim.Second}
	got := lab.Map(lab.New(8), jobs, func(i int) int {
		cmp := exps[i%len(exps)].Run(scale)
		return len(cmp.Metrics)
	})
	for i, n := range got {
		if n == 0 {
			t.Fatalf("job %d (%s) produced no metrics", i, exps[i%len(exps)].ID)
		}
	}
}
