package core

import (
	"repro/internal/lab"
)

// MatrixResult is one experiment's outcome from a matrix run. core is
// clock-free — the determinism analyzer enforces it — so the result
// table depends only on the experiments and the scale, never on host
// timing.
type MatrixResult struct {
	Experiment Experiment
	Comparison *Comparison
}

// RunMatrix runs the given experiments across parallelism workers
// (0 = GOMAXPROCS) and returns the outcomes in the experiments' order.
// Every experiment is an independent deterministic simulation, so the
// result table is identical for any parallelism.
func RunMatrix(exps []Experiment, s Scale, parallelism int) []MatrixResult {
	pool := lab.New(parallelism)
	return lab.Map(pool, len(exps), func(i int) MatrixResult {
		return MatrixResult{Experiment: exps[i], Comparison: exps[i].Run(s)}
	})
}
