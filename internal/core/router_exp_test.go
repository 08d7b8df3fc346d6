package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/golden"
	"repro/internal/sim"
)

// TestE14Golden pins E14's exact outcome: the stream's accounting, the
// latency summary, the router's CPU time and the scheduler's event
// count at ctmsbench's default four-minute scale. The golden was captured with the original two-port router, so
// any change to the forwarding engine that moves one event, one
// nanosecond of CPU time or one latency sample fails here; re-pin with
// `make goldens` only on review.
func TestE14Golden(t *testing.T) {
	run := simulateE14(Scale{Duration: 4 * sim.Minute})
	got := fmt.Sprintf("sent=%d delivered=%d\nlatency n=%d mean=%v min=%v max=%v\nrouter busy=%d\nfired=%d\n",
		run.sent, run.delivered,
		run.lat.N(), run.lat.Mean(), run.lat.Min(), run.lat.Max(),
		int64(run.routerBusy), run.fired)
	golden.Check(t, filepath.Join("testdata", "e14_router.golden"), []byte(got))
}
