package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// TestE14Golden pins E14's exact outcome: the stream's accounting, the
// latency summary, the router's CPU time and the scheduler's event
// count at ctmsbench's default four-minute scale. The golden was captured with the original two-port router, so
// any change to the forwarding engine that moves one event, one
// nanosecond of CPU time or one latency sample fails here.
func TestE14Golden(t *testing.T) {
	run := simulateE14(Scale{Duration: 4 * sim.Minute})
	got := fmt.Sprintf("sent=%d delivered=%d\nlatency n=%d mean=%v min=%v max=%v\nrouter busy=%d\nfired=%d\n",
		run.sent, run.delivered,
		run.lat.N(), run.lat.Mean(), run.lat.Min(), run.lat.Max(),
		int64(run.routerBusy), run.fired)
	path := filepath.Join("testdata", "e14_router.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("E14 drifted from %s:\n--- golden ---\n%s--- got ---\n%s", path, want, got)
	}
}
