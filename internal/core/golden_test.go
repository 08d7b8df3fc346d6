package core

import (
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestE18GoldenFingerprints pins the whole engine stack — routing,
// admission, forwarding, the conservative-window schedule — against
// serial fingerprints captured before the compiled route table, the
// pooled forwarding path and the per-link windows existed. On a
// uniform-latency line the per-link lookahead recurrence collapses to
// the old global window grid and the route table reproduces the old
// per-stream BFS tie-breaks. Drift means an observable event moved;
// re-pin only on review.
func TestE18GoldenFingerprints(t *testing.T) {
	cases := []struct {
		golden   string
		rings    int
		duration sim.Time
	}{
		{"e18_line4_1000ms.golden", 4, sim.Second},
		{"e18_line8_1500ms.golden", 8, 1500 * sim.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			spec := E18Topology(tc.rings, SweepSeed(1991, 18), tc.duration)
			n, err := topo.Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.golden), []byte(n.Run(1).Fingerprint()))
		})
	}
}
