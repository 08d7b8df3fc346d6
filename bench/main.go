// Command bench measures the simulator's host cost on four workloads
// driven through the repository's public entry points, checks every run's
// simulated output against a pinned digest, and attributes host time and
// allocations to the model's layers from profiled runs. See README.md.
//
// Each measured run is a fresh child process of this binary. Without
// -workload it runs interleaved rounds over all workloads and prints a
// JSON report; with -workload it measures one workload for -seconds and
// prints the one-line result BENCHMARK.json describes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name        = fs.String("workload", "", "measure only this workload for -seconds and print the one-line result")
		seed        = fs.Int64("seed", 1991, "workload seed")
		seconds     = fs.Float64("seconds", 30, "with -workload: how long to measure")
		trace       = fs.Int("trace", 0, "with -workload: 1 reports the per-layer metrics from traced runs")
		scale       = fs.Float64("scale", 1, "multiplies every workload's simulated duration")
		repeats     = fs.Int("repeats", 5, "without -workload: interleaved rounds of untraced runs")
		compare     = fs.Bool("compare", false, "compare two reports: bench -compare base.json candidate.json")
		writeGolden = fs.Bool("write-golden", false, "run each workload once and pin its output digest for -seed and -scale")
		goldenPath  = fs.String("golden", "bench/golden.json", "pinned output digests")
		specPath    = fs.String("benchmark", "BENCHMARK.json", "benchmark description holding the metric bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two report files")
			return 2
		}
		var spec benchmarkSpec
		var base, cand report
		if err := readJSON(*specPath, &spec); err != nil {
			return fail(err)
		}
		if err := readJSON(fs.Arg(0), &base); err != nil {
			return fail(err)
		}
		if err := readJSON(fs.Arg(1), &cand); err != nil {
			return fail(err)
		}
		bad := compareReports(&spec, &base, &cand)
		for _, b := range bad {
			fmt.Println("REGRESSION", b)
		}
		if len(bad) > 0 {
			return 1
		}
		fmt.Println("ok: every metric within its bound, counts and digests identical")
		return 0
	}

	golden, err := readGolden(*goldenPath)
	if err != nil {
		return fail(err)
	}
	r, err := newRunner(*seed, *scale)
	if err != nil {
		return fail(err)
	}

	if *name != "" {
		if _, err := workloadByName(*name); err != nil {
			return fail(err)
		}
		s := newSession(r, golden)
		s.rounds([]string{*name}, 0, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		wr := s.workloadReport(*name)
		for _, f := range wr.Failures {
			fmt.Fprintln(os.Stderr, "FAIL", f)
		}
		res := wr.result(*trace == 1)
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}

	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if *writeGolden {
		s := newSession(r, goldenFile{})
		s.rounds(names, 1, 0, false)
		digests := map[string]string{}
		for _, n := range names {
			wr := s.workloadReport(n)
			if wr.Failed > 0 {
				return fail(fmt.Errorf("%s", wr.Failures[0]))
			}
			digests[n] = wr.Digest
		}
		golden.pin(*seed, *scale, digests)
		if err := writeJSON(*goldenPath, golden); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "pinned %d digests for seed %d scale %g in %s\n", len(digests), *seed, *scale, *goldenPath)
		return 0
	}

	rep := fullRun(r, golden, names, *repeats)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(data))
	code := 0
	for _, n := range names {
		for _, f := range rep.Workloads[n].Failures {
			fmt.Fprintln(os.Stderr, "FAIL", f)
			code = 1
		}
	}
	return code
}

// fullRun measures every named workload: repeats interleaved rounds of
// untraced runs (A B C D A B C D …), which spread host drift evenly over
// the workloads, then one traced run of each.
func fullRun(r *runner, golden goldenFile, names []string, repeats int) *report {
	s := newSession(r, golden)
	s.rounds(names, repeats, 0, false)
	for _, n := range names {
		s.run(n, true)
	}
	return s.report()
}
