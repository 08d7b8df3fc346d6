package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/topo"
)

// childEnv marks a process as a measured child: it runs one workload once
// and prints its sample as JSON. The parent only starts children and
// waits for them, so GC state and peak RSS never carry over between runs.
const childEnv = "REPRO_BENCH_CHILD"

// After its run a child times further set-ups in batches of at least
// setupBatch, so that a set-up of a microsecond is not lost in the
// clock's own cost: at least minBatches batches and setupBudget in all.
// setup_s is the median time per set-up.
const (
	setupBatch  = time.Millisecond
	minBatches  = 5
	setupBudget = 20 * time.Millisecond
)

// memProfileRate is the traced runs' allocation sampling rate in bytes:
// fine enough that the scaled per-layer counts match exact attribution
// closely, without exact attribution's large slowdown.
const memProfileRate = 4096

// sample is what one child measures in one run of one workload.
type sample struct {
	// FirstSetupS is the set-up of the instance that ran; SetupS is the
	// median time of the set-ups timed after the run.
	FirstSetupS float64 `json:"first_setup_s"`
	SetupS      float64 `json:"setup_s"`
	RunS        float64 `json:"run_s"`
	VerifyS     float64 `json:"verify_s"`
	Events      uint64  `json:"events"`
	Mallocs     uint64  `json:"mallocs"`
	// TinyAllocs are the mallocs packed into an already allocated 16-byte
	// tiny block. The allocation profile never sees them, so they form a
	// bucket of their own beside the per-layer counts.
	TinyAllocs uint64             `json:"tiny_allocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Digest     string             `json:"digest"`
	Counts     map[string]float64 `json:"counts"`

	// Traced runs only.
	Layers       *layerCosts `json:"layers,omitempty"`
	OracleDigest string      `json:"oracle_digest,omitempty"`

	// refIdx indexes the host reference the parent timed just before
	// starting this child.
	refIdx int
}

// childMain is a child process's entry point.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 0, "workload seed")
	scale := fs.Float64("scale", 1, "duration scale")
	traced := fs.Bool("traced", false, "profile the run and attribute it to layers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced {
		runtime.MemProfileRate = memProfileRate
		topo.SetWallClock(func() int64 { return time.Now().UnixNano() })
	}
	w, err := workloadByName(*name)
	if err == nil {
		var s *sample
		dur := time.Duration(float64(w.duration) * *scale)
		if s, err = measureRun(w, *seed, dur, *traced); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(s)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *name, err)
		return 1
	}
	return 0
}

// measureRun sets the workload up, runs it and verifies its output,
// measuring each step; a traced run also attributes host time and
// allocations to layers.
func measureRun(w *workload, seed int64, dur time.Duration, traced bool) (*sample, error) {
	s := &sample{}
	var inst *instance
	var before, after runtime.MemStats
	tiny := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	setupAndRun := func() error {
		runtime.ReadMemStats(&before)
		metrics.Read(tiny)
		tinyBefore := tiny[0].Value.Uint64()
		fired := sim.TotalFired()
		t := time.Now()
		var err error
		if inst, err = w.setup(seed, dur); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		s.FirstSetupS = time.Since(t).Seconds()
		t = time.Now()
		if err := inst.run(); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		s.RunS = time.Since(t).Seconds()
		runtime.ReadMemStats(&after)
		metrics.Read(tiny)
		s.TinyAllocs = tiny[0].Value.Uint64() - tinyBefore
		s.Events = sim.TotalFired() - fired
		return nil
	}
	var err error
	if traced {
		s.Layers, err = traceLayers(setupAndRun)
	} else {
		err = setupAndRun()
	}
	if err != nil {
		return nil, err
	}
	s.Mallocs = after.Mallocs - before.Mallocs
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc
	if s.PeakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}

	t := time.Now()
	s.Digest, s.Counts = inst.verify()
	s.VerifyS = time.Since(t).Seconds()
	s.Counts["sim.events"] = float64(s.Events)
	if traced && inst.oracle != nil {
		if s.OracleDigest, err = inst.oracle(); err != nil {
			return nil, fmt.Errorf("serial run: %w", err)
		}
	}

	// The timed set-ups come after the measured run so that their garbage
	// cannot raise its peak RSS or its GC work.
	if s.SetupS, err = setupSeconds(w, seed, dur); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return s, nil
}

// setupSeconds returns the median time of one set-up over timed batches,
// doubling the batch size until a batch lasts setupBatch.
func setupSeconds(w *workload, seed int64, dur time.Duration) (float64, error) {
	var per []float64
	n, total := 1, time.Duration(0)
	for len(per) < minBatches || total < setupBudget {
		t := time.Now()
		for i := 0; i < n; i++ {
			if _, err := w.setup(seed, dur); err != nil {
				return 0, err
			}
		}
		d := time.Since(t)
		total += d
		if d < setupBatch && len(per) == 0 {
			n *= 2
			continue
		}
		per = append(per, d.Seconds()/float64(n))
	}
	return median(per), nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
