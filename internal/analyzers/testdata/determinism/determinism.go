// Package determinism is a ctmsvet fixture: every rule of the
// determinism analyzer, positive and negative. The // want comments are
// golden diagnostics matched by the test harness.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

type tracer struct{}

func (tracer) AddEvent(at int64, kind uint8, a, b int64) {}
func (tracer) Match(at int64, what string) bool          { return false }

var trace tracer

func clocks() {
	_ = time.Now()          // want `time.Now reads the wall clock`
	time.Sleep(time.Second) // want `time.Sleep reads the wall clock`
	start := time.Now()     // want `time.Now reads the wall clock`
	_ = time.Since(start)   // want `time.Since reads the wall clock`

	d := 5 * time.Millisecond // duration constants never read the clock
	_ = d.String()
}

func randoms(seed int64) {
	_ = rand.Intn(6)   // want `rand.Intn draws from the process-global generator`
	_ = rand.Float64() // want `rand.Float64 draws from the process-global generator`

	r := rand.New(rand.NewSource(seed)) // seeded *rand.Rand: allowed
	_ = r.Intn(6)
}

func mapOrder(m map[string]int, ch chan string) []string {
	var out []string
	for k := range m { // want `range over map appends to a slice`
		out = append(out, k)
	}
	for k := range m { // want `range over map sends on a channel`
		ch <- k
	}
	for k, v := range m { // want `range over map emits a trace event`
		trace.AddEvent(int64(v), 1, int64(len(k)), 0)
	}

	total := 0
	for _, v := range m { // reads only: iteration order cannot leak out
		total += v
	}
	_ = total

	keys := make([]string, 0, len(m))
	//ctmsvet:allow determinism keys are collected then sorted before any ordered use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys { // ranging the sorted slice: deterministic
		out = append(out, k)
	}
	return out
}

func localMaps() []int {
	m := make(map[int]int)
	var out []int
	for k := range m { // want `range over map appends to a slice`
		out = append(out, k)
	}
	other := map[string]bool{}
	for k := range other { // want `range over map sends on a channel`
		sink <- k
	}
	return out
}

var sink chan string

type holder struct{ items map[string]int }

func fieldMaps(h holder, ch chan string) {
	for k := range h.items { // want `range over map sends on a channel`
		ch <- k
	}
}

func sliceRanges(xs []string) []string {
	var out []string
	for _, x := range xs { // slices iterate in index order: fine
		out = append(out, x)
	}
	return out
}
