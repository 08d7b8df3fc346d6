// Command ctmsbench regenerates every table and figure of the paper's
// evaluation: it runs the reproduction matrix (experiments E1–E20 of
// DESIGN.md) across a worker pool and prints paper-vs-measured
// comparisons plus ASCII versions of Figures 5-2, 5-3 and 5-4.
//
// Each run writes BENCH.json: exact counts, the same at any -parallel and
// on any host, that -compare requires to equal the baseline's. The lint
// tier wall times are its only host-timed numbers; a tier may grow to
// twice its baseline plus 0.5 s. Host cost (wall time, event rate,
// allocations) is the bench/ module's to measure, not this command's.
//
// Usage (ctmsbench -h lists every flag):
//
//	ctmsbench                        # the matrix at the default 4-minute scale
//	ctmsbench -experiment E4 -full   # one experiment at the paper's 117 minutes
//	ctmsbench -markdown -parallel 8  # an EXPERIMENTS.md-style report, 8 workers
//	ctmsbench -topo 4,8 -population -lint -compare BENCH.baseline.json
//
// -scenario runs ctms.Options scenarios from a JSON file (one object or an
// array, the format testdata/options.golden.json pins) instead.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	ctms "repro"
	"repro/internal/analyzers"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// benchRecord is the BENCH.json schema (documented in EXPERIMENTS.md):
// one table of named rows, the host that timed the lint rows beside it.
type benchRecord struct {
	Rows     []benchRow `json:"rows"`
	LintHost string     `json:"lint_host,omitempty"`
}

// benchRow is one row of values by name: the matrix totals, an
// experiment's verdict, a topo mesh, a population rate or a lint tier.
type benchRow struct {
	Name   string             `json:"name"`
	Values map[string]float64 `json:"values"`
}

// Columns the gate treats specially: identity, lint wall time.
const (
	colIdentical = "identical"
	colWall      = "wall_seconds"
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
		benchout   = flag.String("benchout", "BENCH.json", "write the machine-readable count record here (empty disables)")
		compare    = flag.String("compare", "", "compare this run against a baseline BENCH.json; exit nonzero on any difference")
		topoSides  = flag.String("topo", "", "comma-separated E20 mesh grid sides to run serially and sharded (e.g. 4,8; empty disables)")
		population = flag.Bool("population", false, "run the E19 population offered-load sweep and record its counts")
		lint       = flag.Bool("lint", false, "time the four ctmsvet tiers on this tree and record their rows")
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

	simBefore, firedBefore := sim.TotalSimulated(), sim.TotalFired()
	results := core.RunMatrix(exps, scale, *parallel)
	totals := map[string]float64{
		"scale_minutes": float64(scale.Duration) / float64(sim.Minute),
		"sim_seconds":   (sim.TotalSimulated() - simBefore).Seconds(),
		"events":        float64(sim.TotalFired() - firedBefore),
	}
	rec := benchRecord{Rows: []benchRow{{"matrix", totals}}}
	failures := 0
	for _, mr := range results {
		ok := 0.0
		if mr.Comparison.AllOK() {
			ok = 1
		} else {
			failures++
		}
		rec.Rows = append(rec.Rows, benchRow{"experiment " + mr.Experiment.ID,
			map[string]float64{"ok": ok, "metrics": float64(len(mr.Comparison.Metrics))}})
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
	totals["failures"] = float64(failures)

	// The addenda run after the matrix so its events and sim_seconds
	// count the matrix alone.
	base := cmp.Or(*seed, 1991)
	var err error
	if *topoSides != "" {
		err = addTopoRows(&rec, *topoSides, scale.Duration, base)
	}
	if *population && err == nil {
		err = addPopulationRows(&rec, scale.Duration, base, *parallel)
	}
	if *lint && err == nil {
		rec.LintHost = fmt.Sprintf("%s/%s gomaxprocs=%d", runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
		err = addLintRows(&rec)
	}
	if err != nil {
		return fail(err)
	}
	if g, names := rec.gated(); !*markdown {
		for _, name := range names {
			if !strings.HasPrefix(name, "experiment ") {
				fmt.Printf("--- %s = %s\n", name, num(g[name]))
			}
		}
	}

	if *benchout != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*benchout, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "ctmsbench: %d experiment(s) deviated from the paper's shape\n", failures)
		return 1
	}
	// Fingerprint identity is checked here, whether or not -compare runs:
	// a sharded run that leaves its serial oracle is wrong on any host.
	for _, r := range rec.Rows {
		if v, ok := r.Values[colIdentical]; ok && v != 1 {
			fmt.Fprintf(os.Stderr, "ctmsbench: %s diverged from the serial fingerprint\n", r.Name)
			return 1
		}
	}
	if *compare != "" {
		var baseRec benchRecord
		data, err := os.ReadFile(*compare)
		if err == nil {
			err = json.Unmarshal(data, &baseRec)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctmsbench: baseline %s: %v\n", *compare, err)
			return 3
		}
		if problems := compareBench(baseRec, rec); len(problems) > 0 {
			fmt.Fprintf(os.Stderr, "ctmsbench: differs from %s:\n  %s\n", *compare, strings.Join(problems, "\n  "))
			return 3
		}
		fmt.Printf("--- every gated field matches %s\n", *compare)
	}
	return 0
}

// addTopoRows runs the E20 metro mesh per grid side, serially (the
// bit-identity reference) and at min(rings, 4) workers whatever the host:
// identity must hold under time-sharing too, and the rows stay host-free.
// The simulated duration is the matrix scale capped at 2 s (E20's own).
func addTopoRows(rec *benchRecord, list string, dur sim.Time, base int64) error {
	dur = min(cmp.Or(dur, 2*sim.Second), 2*sim.Second)
	for _, part := range strings.Split(list, ",") {
		side, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || side < 2 || side > 16 {
			return fmt.Errorf("-topo: bad grid side %q (want 2..16)", part)
		}
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
			rec.Rows = append(rec.Rows, benchRow{fmt.Sprintf("topo %d rings × %d workers", spec.Rings, w), map[string]float64{
				"forwarded_frames": float64(fwd), "rounds": float64(res.Engine.Rounds),
				"rounds_skipped": float64(res.Engine.RoundsSkipped), colIdentical: identical,
			}})
		}
	}
	return nil
}

// addPopulationRows runs the E19 sweep at light load, the budget
// crossover and deep overload. The simulated duration is the matrix scale
// capped at 12 s (E19's own cap).
func addPopulationRows(rec *benchRecord, dur sim.Time, base int64, parallel int) error {
	dur = min(cmp.Or(dur, 12*sim.Second), 12*sim.Second)
	points, err := core.PopulationSweep(core.SweepSeed(base, 19), dur, []float64{1, 4, 16, 32}, parallel)
	for _, p := range points {
		rec.Rows = append(rec.Rows, benchRow{fmt.Sprintf("population %g/s", p.OfferedPerSec), map[string]float64{
			"arrivals": float64(p.Arrivals), "admitted": float64(p.Admitted), "rejected": float64(p.Rejected),
			"shed": float64(p.Shed), "departed": float64(p.Departed), "latency_samples": float64(p.LatencyN),
		}})
	}
	return err
}

// addLintRows times the four ctmsvet tiers over this module. The typed
// row includes the go/types load; inter and dim reuse it, as `make lint`.
func addLintRows(rec *benchRecord) error {
	root, err := analyzers.FindModuleRoot(".")
	if err != nil {
		return fmt.Errorf("-lint: %w", err)
	}
	var mod *analyzers.Module
	for _, tier := range []string{"syntactic", "typed", "inter", "dim"} {
		start := time.Now()
		switch tier {
		case "syntactic":
			_, err = analyzers.RunRepo(root)
		case "typed":
			if mod, err = analyzers.LoadTypedModule(root); err == nil {
				_, err = analyzers.RunModuleTyped(mod)
			}
		case "inter":
			_, err = analyzers.RunModuleInter(mod)
		case "dim":
			_, err = analyzers.RunModuleDim(mod)
		}
		if err != nil {
			return fmt.Errorf("-lint %s tier: %w", tier, err)
		}
		rec.Rows = append(rec.Rows, benchRow{"lint " + tier, map[string]float64{colWall: time.Since(start).Seconds()}})
	}
	return nil
}

// gated maps each gated field, "row.column", to its value — every value
// in the record but topo identity — and lists the names in order.
func (r benchRecord) gated() (map[string]float64, []string) {
	f := map[string]float64{}
	var names []string
	for _, row := range r.Rows {
		for col, v := range row.Values {
			if name := row.Name + "." + col; col != colIdentical {
				f[name] = v
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	return f, names
}

// compareBench checks a record against a baseline and returns one line
// per difference, each naming its field: a value that moved, or a field
// on one side only. Every field must match exactly except a lint wall
// time, which may grow to twice the baseline plus half a second.
func compareBench(base, rec benchRecord) []string {
	want, names := base.gated()
	got, runNames := rec.gated()
	var problems []string
	for _, name := range names {
		v, ok := got[name]
		switch b, wall := want[name], strings.HasSuffix(name, "."+colWall); {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: in the baseline, missing from this run", name))
		case wall && v > 2*b+0.5:
			problems = append(problems, fmt.Sprintf("%s = %.2fs, more than double the baseline %.2fs (limit %.2fs)", name, v, b, 2*b+0.5))
		case !wall && v != b:
			problems = append(problems, fmt.Sprintf("%s = %s, baseline %s", name, num(v), num(b)))
		}
	}
	for _, name := range runNames {
		if _, ok := want[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s: in this run, missing from the baseline", name))
		}
	}
	return problems
}

// num formats a gated value with the fewest digits that still round-trip.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

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
