// Command tapdump runs a scenario briefly with the TAP ring monitor and
// dumps what it saw: per-frame records (like IBM's Trace and Analysis
// Program) and the traffic breakdown into the paper's three size classes.
//
// Usage:
//
//	tapdump -case B -seconds 5 -n 40
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/ring"
	"repro/internal/sim"
)

func main() {
	var (
		testCase = flag.String("case", "B", "scenario: A, B or stock")
		seconds  = flag.Float64("seconds", 5, "simulated seconds to capture")
		n        = flag.Int("n", 40, "packet records to print")
		seed     = flag.Int64("seed", 0, "override seed")
		save     = flag.String("o", "", "save the capture to a .ctap trace file")
		load     = flag.String("i", "", "analyze an existing .ctap trace instead of running")
	)
	flag.Parse()

	if *load != "" {
		analyzeFile(*load)
		return
	}

	var cfg core.Config
	switch *testCase {
	case "A", "a":
		cfg = core.TestCaseA()
	case "B", "b":
		cfg = core.TestCaseB()
	case "stock":
		cfg = core.StockUnix(150_000)
	default:
		fmt.Fprintf(os.Stderr, "tapdump: unknown case %q\n", *testCase)
		os.Exit(2)
	}
	cfg.Duration = sim.Time(*seconds * float64(sim.Second))
	if *seed != 0 {
		cfg.Seed = *seed
	}

	_, tap, err := core.RunWithTAP(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapdump:", err)
		os.Exit(1)
	}

	entries := tap.Entries()
	fmt.Printf("captured %d frames in %v (dropped by capture limit: %d)\n\n",
		len(entries), time.Duration(cfg.Duration), tap.Dropped())

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tapdump:", err)
			os.Exit(1)
		}
		if err := measure.WriteTrace(f, entries); err != nil {
			fmt.Fprintln(os.Stderr, "tapdump:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tapdump:", err)
			os.Exit(1)
		}
		fmt.Printf("saved trace to %s\n\n", *save)
	}

	fmt.Printf("%-14s %-4s %-4s %-6s %-6s %-6s %-6s %s\n",
		"time", "AC", "FC", "src", "dst", "len", "kind", "capture[:12]")
	for i, e := range entries {
		if i >= *n {
			fmt.Printf("... %d more\n", len(entries)-*n)
			break
		}
		kind := e.Kind.String()
		if e.Kind == ring.MAC {
			kind = e.MAC.String()
		}
		status := ""
		if e.Lost {
			status = "  ** LOST (ring purge)"
		}
		capture := e.Capture
		if len(capture) > 12 {
			capture = capture[:12]
		}
		fmt.Printf("%-14v 0x%02x 0x%02x %-6d %-6d %-6d %-6s % x%s\n",
			e.T, e.AC, e.FC, e.Src, e.Dst, e.Len, kind, capture, status)
	}

	rate := cfg.RingBitRate
	if rate == 0 {
		rate = ring.DefaultBitRate
	}
	a := measure.AnalyzeTrace(entries, rate)
	fmt.Printf("\ncapture: %d frames over %v\n", a.Frames, a.Span)
	printAnalysis(a)
}

// analyzeFile loads a saved trace and prints the offline analysis.
func analyzeFile(path string) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapdump:", err)
		os.Exit(1)
	}
	defer f.Close()
	entries, err := measure.ReadTrace(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapdump:", err)
		os.Exit(1)
	}
	// The .ctap format does not record the ring's rate; the paper's ring
	// ran at 4 Mbit/s.
	a := measure.AnalyzeTrace(entries, ring.DefaultBitRate)
	fmt.Printf("trace %s: %d frames over %v\n", path, a.Frames, a.Span)
	printAnalysis(a)
}

// printAnalysis prints a capture's utilization, frame counts, size
// classes and inter-arrival times.
func printAnalysis(a measure.TraceAnalysis) {
	fmt.Printf("utilization %.2f%%   MAC %d   lost %d\n", 100*a.Utilization, a.MACFrames, a.LostFrames)
	var keys []string
	for k := range a.SizeClasses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %8d frames\n", k, a.SizeClasses[k])
	}
	if ia := a.InterArrival; ia != nil {
		over := func(us float64) uint64 { return ia.N() - ia.CountWithin(math.Inf(-1), us) }
		fmt.Printf("inter-arrival: mean %.0f µs, p99 %.0f µs, max %.0f µs, >10ms: %d, >100ms: %d\n",
			ia.Mean(), ia.Quantile(0.99), ia.Max(), over(10_000), over(100_000))
	}
}
