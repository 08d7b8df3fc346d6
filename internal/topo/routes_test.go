package topo

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/router"
	"repro/internal/session"
	"repro/internal/sim"
)

// referenceFirstHop is the independent routing oracle the compiled table
// is pinned against: plain per-pair BFS distances, then the first hop is
// the earliest-declared link from src whose far ring sits one hop closer
// to dst. That is exactly the tie-break the pre-refactor per-stream BFS
// produced (BFS explores level k's subtrees in the order their level-1
// roots were discovered, so the first subtree to claim dst is the one
// rooted at the smallest qualifying link index).
func referenceFirstHop(rings int, links []LinkSpec, src, dst int) int {
	dist := func(from int) []int {
		d := make([]int, rings)
		for i := range d {
			d[i] = -1
		}
		d[from] = 0
		queue := []int{from}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, l := range links {
				if l.A != u && l.B != u {
					continue
				}
				v := l.A + l.B - u
				if d[v] < 0 {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
		return d
	}
	if src == dst {
		return -1
	}
	dSrc := dist(src)
	if dSrc[dst] < 0 {
		return -1
	}
	dDst := dist(dst)
	for li, l := range links {
		if l.A != src && l.B != src {
			continue
		}
		v := l.A + l.B - src
		if dDst[v] == dSrc[dst]-1 {
			return li
		}
	}
	return -1
}

func checkTableAgainstReference(t *testing.T, name string, rings int, links []LinkSpec) {
	t.Helper()
	rt := compileRoutes(rings, links)
	for src := 0; src < rings; src++ {
		for dst := 0; dst < rings; dst++ {
			want := referenceFirstHop(rings, links, src, dst)
			got := rt.first[src][dst]
			if got != want {
				t.Fatalf("%s: first[%d][%d] = %d; reference BFS says %d", name, src, dst, got, want)
			}
		}
	}
}

// TestRouteTableMatchesReferenceBFS pins the compiled table's tie-breaks
// against the reference oracle on the topology families the engine runs:
// lines (the pre-PR E18 shape), grids with a trunk (E20's mesh), and a
// pile of random spanning-tree-plus-chords graphs including disconnected
// ones.
func TestRouteTableMatchesReferenceBFS(t *testing.T) {
	for rings := 2; rings <= 9; rings++ {
		var links []LinkSpec
		for i := 0; i+1 < rings; i++ {
			links = append(links, LinkSpec{A: i, B: i + 1})
		}
		checkTableAgainstReference(t, fmt.Sprintf("line-%d", rings), rings, links)
	}
	// 4×4 grid plus a diagonal trunk: redundant equal-hop paths everywhere.
	const side = 4
	var grid []LinkSpec
	at := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				grid = append(grid, LinkSpec{A: at(x, y), B: at(x+1, y)})
			}
			if y+1 < side {
				grid = append(grid, LinkSpec{A: at(x, y), B: at(x, y+1)})
			}
		}
	}
	for i := 0; i+1 < side; i++ {
		grid = append(grid, LinkSpec{A: at(i, i), B: at(i+1, i+1)})
	}
	checkTableAgainstReference(t, "grid-4x4", side*side, grid)

	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		rings := 2 + r.Intn(10)
		var links []LinkSpec
		for i := 1; i < rings; i++ {
			if r.Intn(5) == 0 {
				continue // leave some rings disconnected
			}
			links = append(links, LinkSpec{A: r.Intn(i), B: i})
		}
		for extra := r.Intn(2 * rings); extra > 0; extra-- {
			a, b := r.Intn(rings), r.Intn(rings)
			if a != b {
				links = append(links, LinkSpec{A: a, B: b})
			}
		}
		checkTableAgainstReference(t, fmt.Sprintf("rand-%d", seed), rings, links)
	}
}

// TestRouteTablePathAndComponent pins the walk helpers on a shape with a
// redundant path and a disconnected island.
func TestRouteTablePathAndComponent(t *testing.T) {
	// 0-1-2-3 ring (redundant) plus isolated 4.
	links := []LinkSpec{{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3}, {A: 3, B: 0}}
	rt := compileRoutes(5, links)
	if p := rt.path(0, 2); len(p) != 3 || p[0] != 0 || p[1] != 1 || p[2] != 2 {
		t.Fatalf("path 0→2 = %v; want the earliest-declared two-hop route [0 1 2]", p)
	}
	if p := rt.path(0, 3); len(p) != 2 || p[1] != 3 {
		t.Fatalf("path 0→3 = %v; want the direct hop [0 3]", p)
	}
	if p := rt.path(0, 4); p != nil {
		t.Fatalf("path to the island = %v; want nil", p)
	}
	if comp := rt.component(4); len(comp) != 1 || comp[0] != 4 {
		t.Fatalf("island component = %v", comp)
	}
	if got := rt.describeComponent(0); got != "reaches only rings 0 1 2 3" {
		t.Fatalf("describeComponent(0) = %q", got)
	}
}

// TestValidateNamesLatencyFloorEndpoints pins the satellite fix: the
// lookahead-floor error must say which rings the offending link joins,
// not just the latency value.
func TestValidateNamesLatencyFloorEndpoints(t *testing.T) {
	spec := twoRingSpec()
	spec.Links = []LinkSpec{{A: 0, B: 1, Latency: sim.Microsecond}}
	err := spec.Validate()
	if err == nil {
		t.Fatal("sub-switch-cost latency accepted")
	}
	for _, want := range []string{"rings 0-1", "below the switch cost"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("latency-floor error %q does not contain %q", err, want)
		}
	}
}

// TestValidateUnreachableNamesComponent pins the unreachable-pair error's
// path context: it must describe what the source ring can actually reach.
func TestValidateUnreachableNamesComponent(t *testing.T) {
	spec := Spec{
		Name:     "split-brain",
		Seed:     1,
		Duration: sim.Second,
		Rings:    4,
		Links:    []LinkSpec{{A: 0, B: 1}}, // rings 2 and 3 are islands
		Streams: []StreamSpec{
			{StreamSpec: session.StreamSpec{Name: "lost", PacketBytes: 200,
				Interval: 12 * sim.Millisecond, Class: session.ClassStandard},
				SrcRing: 0, DstRing: 3},
		},
	}
	err := spec.Validate()
	if err == nil {
		t.Fatal("unreachable stream accepted")
	}
	for _, want := range []string{"no path from ring 0 to ring 3", "reaches only rings 0 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("unreachable error %q does not contain %q", err, want)
		}
	}
}

// meshSpec is a 3×3 grid with a slow trunk, heterogeneous latencies and
// cross-mesh streams — the randomized-mesh oracle's base shape.
func meshSpec(seed int64) Spec {
	r := rand.New(rand.NewSource(seed))
	const side = 3
	rings := side * side
	spec := Spec{
		Name:           fmt.Sprintf("mesh-oracle-%d", seed),
		Seed:           seed,
		Duration:       500*sim.Millisecond + sim.Time(r.Intn(4))*100*sim.Millisecond,
		Rings:          rings,
		BackgroundUtil: float64(r.Intn(3)) * 0.04,
	}
	at := func(x, y int) int { return y*side + x }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				l := LinkSpec{A: at(x, y), B: at(x+1, y)}
				if r.Intn(2) == 0 {
					l.Latency = DefaultLinkLatency + sim.Time(r.Intn(4))*sim.Millisecond
				}
				spec.Links = append(spec.Links, l)
			}
			if y+1 < side {
				spec.Links = append(spec.Links, LinkSpec{A: at(x, y), B: at(x, y+1)})
			}
		}
	}
	spec.Links = append(spec.Links, LinkSpec{A: 0, B: rings - 1, Latency: 6 * sim.Millisecond})
	classes := []session.Class{session.ClassBackground, session.ClassStandard, session.ClassInteractive}
	for i, streams := 0, 3+r.Intn(4); i < streams; i++ {
		spec.Streams = append(spec.Streams, StreamSpec{
			StreamSpec: session.StreamSpec{
				Name:        fmt.Sprintf("m%d", i),
				PacketBytes: 100 + r.Intn(600),
				Interval:    sim.Time(8+r.Intn(20)) * sim.Millisecond,
				Class:       classes[r.Intn(len(classes))],
			},
			SrcRing: r.Intn(rings),
			DstRing: r.Intn(rings),
		})
	}
	if r.Intn(2) == 0 {
		spec.Bursts = append(spec.Bursts, BurstSpec{
			SrcRing: r.Intn(rings), DstRing: r.Intn(rings),
			At:    sim.Time(1+r.Intn(300)) * sim.Millisecond,
			Count: 40 + r.Intn(120), PacketBytes: 700 + r.Intn(900),
		})
	}
	return spec
}

// TestMeshOracleWorkerCounts is the mesh extension of the serial oracle:
// randomized 9-ring grid meshes — redundant paths, heterogeneous link
// latencies, a slow chord — must produce byte-identical fingerprints at
// worker counts {1, 2, 3, K}, K the ring count. `make race-shards` runs
// this under the race detector.
func TestMeshOracleWorkerCounts(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := meshSpec(seed)
			run := func(workers int) *Results {
				n, err := Build(spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return n.Run(workers)
			}
			ref := run(1)
			want := ref.Fingerprint()
			for _, workers := range []int{2, 3, spec.Rings} {
				got := run(workers)
				if fp := got.Fingerprint(); fp != want {
					t.Fatalf("workers=%d diverged from serial oracle:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
						workers, want, workers, fp)
				}
				if got.Engine.Rounds != ref.Engine.Rounds ||
					got.Engine.RoundsSkipped != ref.Engine.RoundsSkipped {
					t.Fatalf("workers=%d round accounting diverged: %d+%d vs serial %d+%d",
						workers, got.Engine.Rounds, got.Engine.RoundsSkipped,
						ref.Engine.Rounds, ref.Engine.RoundsSkipped)
				}
			}
		})
	}
}

// TestInboxPoolsSteadyStateZeroAlloc pins the pooled cross-ring data
// path at the unit level: once warm, an inbox put→drain cycle and an
// arrival get→put cycle allocate nothing. (The whole-run budget is
// internal/core's TestE20MeshAllocationBudget, and host cost is the
// bench/ metro-mesh workload's allocs_per_event; these are the pieces
// the hotpath analyzer also proves allocation-free statically.)
func TestInboxPoolsSteadyStateZeroAlloc(t *testing.T) {
	box := newInbox(0, nil)
	s := &shard{scratch: make([]crossMsg, 0, 16)}
	// Warm the slices to their high-water marks.
	for i := 0; i < 8; i++ {
		box.put(sim.Time(i), router.Forwarded{Size: 100})
	}
	s.scratch = box.drainDue(sim.Time(8), 1, s.scratch[:0])
	s.scratch = s.scratch[:0]
	warm := make([]*arrival, 0, 4)
	for i := 0; i < 4; i++ {
		warm = append(warm, s.getArrival())
	}
	for _, a := range warm {
		s.putArrival(a)
	}

	if n := testing.AllocsPerRun(200, func() {
		box.put(1, router.Forwarded{Size: 100})
		s.scratch = box.drainDue(2, 3, s.scratch[:0])
		s.scratch = s.scratch[:0]
	}); n != 0 {
		t.Fatalf("inbox put/drain cycle allocates %.1f per op; want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		a := s.getArrival()
		s.putArrival(a)
	}); n != 0 {
		t.Fatalf("arrival pool cycle allocates %.1f per op; want 0", n)
	}
}
