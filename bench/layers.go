package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
)

// modelLayers are the model's modules, by package name under
// repro/internal.
var modelLayers = []string{
	"sim", "rtpc", "kernel", "tradapter", "ring", "router", "topo",
	"session", "playout", "workload", "ctmsp", "inet", "vca", "measure",
	"stats", "core",
}

// layers adds the root package as "api" and two buckets for host time
// no model frame accounts for: "gc" for the collector's own workers,
// "runtime" for everything else.
var layers = append(slices.Clone(modelLayers), "api", "gc", "runtime")

// layerOf maps a function name as the runtime prints it
// ("repro/internal/ring.(*Ring).deliver", "repro.Run") to its layer. ok
// is false for frames outside the model: the runtime, the standard
// library, the benchmark itself and module packages that are not layers.
func layerOf(fn string) (layer string, ok bool) {
	if rest, found := strings.CutPrefix(fn, "repro/internal/"); found {
		if end := strings.IndexAny(rest, "./"); end > 0 {
			layer = rest[:end]
		}
		return layer, slices.Contains(modelLayers, layer)
	}
	return "api", strings.HasPrefix(fn, "repro.")
}

// isGCFrame reports whether fn is part of the collector's background
// work: mark workers, sweeping and scavenging.
func isGCFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
		fn == "runtime.bgscavenge" || fn == "runtime.GC"
}

// attribute charges a stack (innermost frame first) to the innermost
// frame's layer that is a model layer, so runtime work a layer causes —
// mallocgc, map access, a GC assist — counts with it. Stacks with no
// model frame go to "gc" when the collector is running them and to
// "runtime" otherwise.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l, ok := layerOf(fn); ok {
			return l
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "gc"
		}
	}
	return "runtime"
}

// layerCosts is a traced run's attribution: CPU profile samples and
// estimated allocations per layer.
type layerCosts struct {
	CPUSamples map[string]int64   `json:"cpu_samples"`
	Allocs     map[string]float64 `json:"allocs"`
}

// cpuLayers attributes a gzipped CPU profile's samples.
func cpuLayers(gz []byte) (map[string]int64, error) {
	samples, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		out[attribute(s.stack)] += s.value
	}
	return out, nil
}

// memSite keys the allocation profile's records. The runtime keeps one
// record per full stack and object size; several can share the recorded
// 32-frame prefix, so a site sums them.
type memSite struct {
	stack [32]uintptr
	size  int64
}

// memSnapshot flushes and reads the cumulative allocation profile: the
// sampled object count of every site.
func memSnapshot() map[memSite]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[memSite]int64, n)
	for _, r := range recs[:n] {
		if r.AllocObjects > 0 {
			out[memSite{r.Stack0, r.AllocBytes / r.AllocObjects}] += r.AllocObjects
		}
	}
	return out
}

// memLayers attributes the allocations made between two snapshots,
// scaling each site's sampled count by its object size the way pprof
// does for a sampling rate of rate bytes.
func memLayers(before, after map[memSite]int64, rate int) map[string]float64 {
	out := map[string]float64{}
	for site, n := range after {
		if n -= before[site]; n <= 0 {
			continue
		}
		scale := 1 / (1 - math.Exp(-float64(site.size)/float64(rate)))
		out[attribute(frameNames(site.stack[:]))] += float64(n) * scale
	}
	return out
}

// frameNames symbolizes a profile stack, innermost first, expanding
// inlined calls.
func frameNames(stk []uintptr) []string {
	if i := slices.Index(stk, 0); i >= 0 {
		stk = stk[:i]
	}
	var names []string
	frames := runtime.CallersFrames(stk)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// traceLayers runs fn under a CPU profile and the allocation profile
// (which the caller must have set to memProfileRate before allocating)
// and attributes both to layers.
func traceLayers(fn func() error) (*layerCosts, error) {
	before := memSnapshot()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	after := memSnapshot()
	samples, err := cpuLayers(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	return &layerCosts{CPUSamples: samples, Allocs: memLayers(before, after, memProfileRate)}, nil
}
