package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// TestE20MeshSmoke is the CI gate for the metro mesh: E20 at a reduced
// scale must pass every metric — the {1,2,3,16}-worker bit-identity, the
// worker-invariant round/skip accounting, and the sparse-mesh skip claim
// — and `make race-shards` runs this under the race detector, giving the
// per-link windows and the barrier-decided idle-round skip real
// interleavings to defend.
func TestE20MeshSmoke(t *testing.T) {
	cmp := runE20(Scale{Duration: 800 * sim.Millisecond})
	if !cmp.AllOK() {
		t.Fatalf("E20 deviated:\n%s", cmp.Render())
	}
}

// TestE20TopologyShape pins the parameterized mesh builder: a side-S
// grid has S² rings, 2·S·(S−1) grid links plus S−1 trunk chords, and the
// trunk carries a distinct (larger) latency — the heterogeneity the
// per-link windows are sized from.
func TestE20TopologyShape(t *testing.T) {
	const side = 4
	spec := E20Topology(side, 7, sim.Second)
	rings := side * side
	wantLinks := 2*side*(side-1) + (side - 1)
	if spec.Rings != rings || len(spec.Links) != wantLinks {
		t.Fatalf("side-%d mesh has %d rings, %d links; want %d, %d",
			side, spec.Rings, len(spec.Links), rings, wantLinks)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	trunks := 0
	for _, l := range spec.Links {
		if l.Latency > 0 && l.Latency != topo.DefaultLinkLatency {
			trunks++
			if l.Latency <= topo.DefaultLinkLatency {
				t.Fatalf("trunk link %v not slower than the grid default", l)
			}
		}
	}
	if trunks != side-1 {
		t.Fatalf("found %d trunk links; want %d", trunks, side-1)
	}
	if spec.Population == nil {
		t.Fatal("mesh spec carries no population")
	}
	if _, err := topo.Build(spec); err != nil {
		t.Fatal(err)
	}
}
