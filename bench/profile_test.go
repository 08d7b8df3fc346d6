package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var spinSink uint64

//go:noinline
func spinForProfile(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}

func TestParseProfileFindsSpin(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.value
				break
			}
		}
	}
	if total == 0 || spin*2 < total {
		t.Fatalf("spin function in %d of %d samples, want most", spin, total)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x0a}) // a sample field claiming 5 bytes, holding 1
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		fn    string
		layer string
		ok    bool
	}{
		{"repro/internal/ring.(*Ring).deliver", "ring", true},
		{"repro/internal/topo.(*Network).Run.func1", "topo", true},
		{"repro/internal/sim.(*Scheduler).bucketPut", "sim", true},
		{"repro/internal/stats.percentile[...]", "stats", true},
		{"repro/internal/kernel.(*Pool[...]).Get.func2", "kernel", true},
		{"repro/internal/measure/tracefile.(*Writer).Write", "measure", true},
		{"repro.Run", "api", true},
		{"repro.(*Session).Run", "api", true},
		{"repro.enumTable[...].toCore", "api", true},
		{"repro/internal/lab.(*Pool).Run", "", false},
		{"repro/bench.measureRun", "", false},
		{"runtime.mallocgc", "", false},
		{"main.main", "", false},
	} {
		layer, ok := layerOf(tc.fn)
		if ok != tc.ok || ok && layer != tc.layer {
			t.Errorf("layerOf(%q) = %q, %v; want %q, %v", tc.fn, layer, ok, tc.layer, tc.ok)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"runtime frames count with the nearest model caller",
			[]string{"runtime.mapaccess2_fast64", "repro/internal/ring.(*Ring).deliver", "repro/internal/sim.(*Scheduler).Run"}, "ring"},
		{"malloc under a closure",
			[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/tradapter.(*Adapter).pumpTx.func1", "repro/internal/sim.(*Scheduler).Run"}, "tradapter"},
		{"a GC assist counts with the allocating layer",
			[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/rtpc.(*DMA).pump"}, "rtpc"},
		{"stdlib called from a layer",
			[]string{"slices.SortFunc[...]", "repro/internal/topo.(*inbox).drainDue"}, "topo"},
		{"root package",
			[]string{"strings.(*Builder).WriteString", "repro.resultFrom"}, "api"},
		{"background mark worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
		{"background sweeper",
			[]string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"scheduler idle",
			[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{"benchmark frames are not a layer",
			[]string{"crypto/sha256.block", "repro/bench.digest"}, "runtime"},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("%s: attribute = %q, want %q", tc.name, got, tc.want)
		}
	}
}
