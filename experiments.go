package ctms

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// ExperimentInfo describes one entry of the reproduction matrix.
type ExperimentInfo struct {
	ID     string // "E1".."E20"
	Source string // figure/table/section in the paper
	Title  string
}

// ExperimentMetric is one paper-vs-measured comparison row.
type ExperimentMetric struct {
	Name     string
	Paper    string
	Measured string
	OK       bool
}

// ExperimentResult is an experiment's outcome.
type ExperimentResult struct {
	Info    ExperimentInfo
	Metrics []ExperimentMetric
	// Figures maps figure names to ASCII renderings.
	Figures map[string]string
	Notes   []string
}

// AllOK reports whether every metric matched the paper's shape.
func (r *ExperimentResult) AllOK() bool {
	for _, m := range r.Metrics {
		if !m.OK {
			return false
		}
	}
	return true
}

// Experiments lists the reproduction matrix (DESIGN.md §4): every figure,
// table and headline claim of the paper, plus the extensions (E12–E20).
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range core.Experiments() {
		out = append(out, ExperimentInfo{ID: e.ID, Source: e.Source, Title: e.Title})
	}
	return out
}

// RunExperiment executes one experiment. duration scales the long
// scenarios (zero means each experiment's default; the paper's Test Case
// B ran 117 minutes).
func RunExperiment(id string, duration time.Duration) (*ExperimentResult, error) {
	e, ok := core.ExperimentByID(id)
	if !ok {
		return nil, fmt.Errorf("ctms: unknown experiment %q", id)
	}
	return resultFromComparison(e, e.Run(core.Scale{Duration: sim.Time(duration)})), nil
}

// RunAllExperiments runs the full reproduction matrix (E1–E20) across
// parallelism worker goroutines — 1 runs serially on the calling
// goroutine, 0 selects GOMAXPROCS — and returns the results in matrix
// order. duration scales the long scenarios exactly as in RunExperiment.
//
// Determinism guarantee: every experiment is a self-contained simulation
// with its own scheduler and seeded RNG, dispatched with inputs fixed
// before fan-out and collected by index — so the returned results,
// including every metric string and rendered figure, are byte-identical
// for any parallelism.
func RunAllExperiments(parallelism int, duration time.Duration) []*ExperimentResult {
	exps := core.Experiments()
	scale := core.Scale{Duration: sim.Time(duration)}
	out := make([]*ExperimentResult, len(exps))
	for i, mr := range core.RunMatrix(exps, scale, parallelism) {
		out[i] = resultFromComparison(mr.Experiment, mr.Comparison)
	}
	return out
}

func resultFromComparison(e core.Experiment, cmp *core.Comparison) *ExperimentResult {
	res := &ExperimentResult{
		Info:    ExperimentInfo{ID: e.ID, Source: e.Source, Title: e.Title},
		Figures: cmp.Figures,
		Notes:   cmp.Notes,
	}
	for _, m := range cmp.Metrics {
		res.Metrics = append(res.Metrics, ExperimentMetric{
			Name: m.Name, Paper: m.Paper, Measured: m.Measured, OK: m.OK,
		})
	}
	return res
}
