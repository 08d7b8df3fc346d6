// Command ctmsbench regenerates every table and figure of the paper's
// evaluation: it runs the reproduction matrix (experiments E1–E20 of
// DESIGN.md) across a worker pool and prints paper-vs-measured
// comparisons plus ASCII versions of Figures 5-2, 5-3 and 5-4.
//
// Each run also prints its count record, one "--- row.column = value"
// line per field: exact counts, the same at any -parallel and on any
// host. TestCountRecord pins the record of the smoke-scale matrix with
// -topo 4,8 -population in testdata/counts.golden (make bench-check).
// Host cost (wall time, event rate, allocations) is the bench/ module's
// to measure, not this command's.
//
// Usage (ctmsbench -h lists every flag):
//
//	ctmsbench                        # the matrix at the default 4-minute scale
//	ctmsbench -experiment E4 -full   # one experiment at the paper's 117 minutes
//	ctmsbench -markdown -parallel 8  # an EXPERIMENTS.md-style report, 8 workers
//	ctmsbench -minutes 0.5 -topo 4,8 -population  # the pinned record
//
// -scenario runs ctms.Options scenarios from a JSON file (one object or an
// array, the format testdata/options.golden.json pins) instead.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	ctms "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		experiment = flag.String("experiment", "", "run a single experiment (E1..E20)")
		scenario   = flag.String("scenario", "", "run ctms.Options scenario(s) from a JSON file")
		full       = flag.Bool("full", false, "run the paper's full 117-minute durations")
		minutes    = flag.Float64("minutes", 4, "scenario duration in minutes (ignored with -full)")
		seed       = flag.Int64("seed", 0, "override the default seed")
		markdown   = flag.Bool("markdown", false, "emit a markdown report")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the matrix (1 = serial)")
		topoSides  = flag.String("topo", "", "comma-separated E20 mesh grid sides to run serially and sharded (e.g. 4,8; empty disables)")
		population = flag.Bool("population", false, "run the E19 population offered-load sweep and record its counts")
	)
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "ctmsbench: %v\n", err)
		return 1
	}
	if *scenario != "" {
		if err := runScenarios(*scenario, *seed); err != nil {
			return fail(err)
		}
		return 0
	}

	scale := core.Scale{Seed: *seed, Duration: sim.Time(max(*minutes, 0) * float64(sim.Minute))}
	if *full {
		scale.Duration = 117 * sim.Minute
	}
	exps := core.Experiments()
	if *experiment != "" {
		e, ok := core.ExperimentByID(strings.ToUpper(*experiment))
		if !ok {
			fmt.Fprintf(os.Stderr, "ctmsbench: unknown experiment %q\n", *experiment)
			return 2
		}
		exps = []core.Experiment{e}
	}
	var sides []int
	for _, part := range strings.Split(*topoSides, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		side, err := strconv.Atoi(part)
		if err != nil || side < 2 || side > 16 {
			fmt.Fprintf(os.Stderr, "ctmsbench: -topo: bad grid side %q (want 2..16)\n", part)
			return 2
		}
		sides = append(sides, side)
	}

	results, rec, err := record(exps, scale, *parallel, sides, *population)
	if err != nil {
		return fail(err)
	}
	for _, mr := range results {
		if *markdown {
			printMarkdown(mr.Experiment, mr.Comparison)
			continue
		}
		fmt.Printf("=== %s (%s) %s\n", mr.Experiment.ID, mr.Experiment.Source, mr.Experiment.Title)
		fmt.Print(mr.Comparison.Render())
		for name, fig := range mr.Comparison.Figures {
			fmt.Printf("\n%s\n%s\n", name, fig)
		}
		fmt.Println()
	}
	if !*markdown {
		for _, line := range rec.lines() {
			if !strings.HasPrefix(line, "experiment ") {
				fmt.Printf("--- %s\n", line)
			}
		}
	}

	if failures := rec["matrix.failures"]; failures > 0 {
		fmt.Fprintf(os.Stderr, "ctmsbench: %g experiment(s) deviated from the paper's shape\n", failures)
		return 1
	}
	// A sharded run that leaves its serial oracle is wrong on any host.
	for field, v := range rec {
		if strings.HasSuffix(field, ".identical") && v != 1 {
			fmt.Fprintf(os.Stderr, "ctmsbench: %s diverged from the serial fingerprint\n", strings.TrimSuffix(field, ".identical"))
			return 1
		}
	}
	return 0
}

// counts is a count record: every field by name, "row.column". A row is
// the matrix totals, an experiment's verdict, a topo mesh or a
// population rate.
type counts map[string]float64

func (c counts) put(row string, values map[string]float64) {
	for col, v := range values {
		c[row+"."+col] = v
	}
}

// lines lists the record one "row.column = value" line per field,
// sorted, each value with the fewest digits that still round-trip.
func (c counts) lines() []string {
	lines := make([]string, 0, len(c))
	for field, v := range c {
		lines = append(lines, field+" = "+strconv.FormatFloat(v, 'f', -1, 64))
	}
	sort.Strings(lines)
	return lines
}

// record runs the matrix, then the E20 mesh per grid side and, with
// population, the E19 sweep, and returns the matrix results in order and
// the count record. The addenda run after the matrix, so its events and
// sim_seconds count the matrix alone.
func record(exps []core.Experiment, scale core.Scale, parallel int, sides []int, population bool) ([]core.MatrixResult, counts, error) {
	c := counts{}
	simBefore, firedBefore := sim.TotalSimulated(), sim.TotalFired()
	results := core.RunMatrix(exps, scale, parallel)
	failures := 0
	for _, mr := range results {
		ok := 0.0
		if mr.Comparison.AllOK() {
			ok = 1
		} else {
			failures++
		}
		c.put("experiment "+mr.Experiment.ID, map[string]float64{"ok": ok, "metrics": float64(len(mr.Comparison.Metrics))})
	}
	c.put("matrix", map[string]float64{
		"scale_minutes": float64(scale.Duration) / float64(sim.Minute),
		"sim_seconds":   (sim.TotalSimulated() - simBefore).Seconds(),
		"events":        float64(sim.TotalFired() - firedBefore),
		"failures":      float64(failures),
	})

	base := cmp.Or(scale.Seed, 1991)
	for _, side := range sides {
		if err := topoRows(c, side, scale.Duration, base); err != nil {
			return results, c, err
		}
	}
	if population {
		// The simulated duration is the matrix scale capped at 12 s (E19's own cap).
		dur := min(cmp.Or(scale.Duration, 12*sim.Second), 12*sim.Second)
		points, err := core.PopulationSweep(core.SweepSeed(base, 19), dur, []float64{1, 4, 16, 32}, parallel)
		for _, p := range points {
			c.put(fmt.Sprintf("population %g/s", p.OfferedPerSec), map[string]float64{
				"arrivals": float64(p.Arrivals), "admitted": float64(p.Admitted), "rejected": float64(p.Rejected),
				"shed": float64(p.Shed), "departed": float64(p.Departed), "latency_samples": float64(p.LatencyN),
			})
		}
		if err != nil {
			return results, c, err
		}
	}
	return results, c, nil
}

// topoRows runs the E20 metro mesh of one grid side serially (the
// bit-identity reference) and at min(rings, 4) workers whatever the host:
// identity must hold under time-sharing too, and the rows stay host-free.
// The simulated duration is the matrix scale capped at 2 s (E20's own).
func topoRows(c counts, side int, dur sim.Time, base int64) error {
	dur = min(cmp.Or(dur, 2*sim.Second), 2*sim.Second)
	spec := core.E20Topology(side, core.SweepSeed(base, 20), dur)
	var ref string
	for _, w := range []int{1, min(spec.Rings, 4)} {
		n, err := topo.Build(spec)
		if err != nil {
			return err
		}
		res := n.Run(w)
		fp := res.Fingerprint()
		if w == 1 {
			ref = fp
		}
		var fwd uint64
		for _, l := range res.Links {
			fwd += l.A.Forwarded + l.B.Forwarded
		}
		identical := 0.0
		if fp == ref {
			identical = 1
		}
		c.put(fmt.Sprintf("topo %d rings × %d workers", spec.Rings, w), map[string]float64{
			"forwarded_frames": float64(fwd), "rounds": float64(res.Engine.Rounds),
			"rounds_skipped": float64(res.Engine.RoundsSkipped), "ceiling": res.Engine.Ceiling(res.Events),
			"identical": identical,
		})
	}
	return nil
}

// runScenarios loads a JSON scenario file (one ctms.Options or an array)
// and runs each scenario, printing its report. A nonzero seed overrides
// every scenario's own.
func runScenarios(path string, seed int64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	scenarios, err := ctms.LoadScenarios(data)
	if err != nil {
		return err
	}
	for i, opts := range scenarios {
		if seed != 0 {
			opts.Seed = seed
		}
		res, err := ctms.Run(opts)
		if err != nil {
			return fmt.Errorf("scenario %d (%s): %w", i, opts.Name, err)
		}
		fmt.Printf("=== scenario %s\n%s\n", res.Name, res.Report)
	}
	return nil
}

func printMarkdown(e core.Experiment, c *core.Comparison) {
	fmt.Printf("### %s — %s (%s)\n\n", e.ID, e.Title, e.Source)
	fmt.Println("| metric | paper | measured | match |")
	fmt.Println("|---|---|---|---|")
	for _, m := range c.Metrics {
		mark := "yes"
		if !m.OK {
			mark = "NO"
		}
		fmt.Printf("| %s | %s | %s | %s |\n", m.Name, m.Paper, m.Measured, mark)
	}
	for _, n := range c.Notes {
		fmt.Printf("\n_%s_\n", n)
	}
	for name, fig := range c.Figures {
		fmt.Printf("\n%s\n\n```\n%s```\n", name, fig)
	}
	fmt.Println()
}
