package session

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunGolden pins one session run byte for byte: static streams on a
// loaded ring plus a churning population, a forced insertion and an
// insertion storm, so admission, shedding, departures, background load
// and the playout-latency histogram all contribute.
func TestRunGolden(t *testing.T) {
	cfg := Config{
		Name:             "golden",
		Seed:             1991,
		Duration:         6 * sim.Second,
		BackgroundUtil:   0.1,
		ForceInsertionAt: 1500 * sim.Millisecond,
		Streams:          specN(4),
		Population: &workload.PopulationSpec{
			ArrivalsPerSec:  6,
			ZipfSkew:        1.1,
			Titles:          8,
			ChurnHalfLife:   2 * sim.Second,
			StormAt:         4 * sim.Second,
			StormInsertions: 3,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(res.Report())
	for i, s := range res.Streams {
		fmt.Fprintf(&b, "stream %d %s dec=%+v shed=%v@%d arrived=%v@%d title=%d departed=%v@%d sent=%d delivered=%d lost=%d gaps=%d dups=%d glitches=%d starved=%d maxbuf=%d active=%d\n",
			i, s.Spec.Name, s.Decision, s.Shed, int64(s.ShedAt), s.Arrived, int64(s.ArrivedAt), s.Title,
			s.Departed, int64(s.DepartedAt), s.Sent, s.Delivered, s.Lost, s.Gaps, s.Duplicates,
			s.Glitches, int64(s.StarvedTime), s.MaxBufferBytes, int64(s.ActiveTime))
	}
	fmt.Fprintf(&b, "admitted=%d rejected=%d shed=%d departed=%d reserved=%d util=%v\n",
		res.Admitted, res.Rejected, res.ShedN, res.Departed, res.ReservedBitsEnd, res.RingUtilization)
	fmt.Fprintf(&b, "ring %+v\n", res.Ring)
	fmt.Fprintf(&b, "%s p50=%v p99=%v\n", res.PlayoutLatency, res.PlayoutLatency.Quantile(0.5), res.PlayoutLatency.Quantile(0.99))
	got := b.String()
	path := filepath.Join("testdata", "run_population_storm.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("session run drifted from %s:\n--- golden ---\n%s--- got ---\n%s", path, want, got)
	}
}
