package core

import (
	"testing"

	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The receiver counts a packet delivered when it accepts it in order or
// across a gap, and the playout buffer counts each packet it is handed;
// every accepted packet is handed over exactly once, so the two counts
// agree on every CTMSP path: the paper's test case, a multi-stream
// session and a stream across the metro mesh.
func TestDeliveredCountsAgree(t *testing.T) {
	check := func(name string, o session.Outcome) {
		t.Helper()
		if o.Stats.Delivered == 0 {
			t.Fatalf("%s: nothing delivered", name)
		}
		if got := o.InOrder + o.Gaps; got != o.Stats.Delivered {
			t.Fatalf("%s: InOrder+Gaps = %d, playout delivered %d", name, got, o.Stats.Delivered)
		}
	}

	cfg := TestCaseB()
	cfg.Duration = 5 * sim.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("TestCaseB", session.Outcome{RxStats: r.RxStats, Stats: r.Playout})

	res, err := session.Run(session.Config{
		Name:           "e17-09",
		Seed:           SweepSeed(1991, 9),
		Duration:       5 * sim.Second,
		BackgroundUtil: 0.05,
		Streams:        e17Streams(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.Streams {
		check("E17 "+st.Spec.Name, st.Outcome)
	}

	n, err := topo.Build(E20Topology(e20Side, SweepSeed(1991, 20), 800*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	mesh := 0
	for _, st := range n.Run(1).Streams {
		if st.Decision.Admitted && st.Sent > 0 {
			check("E20 "+st.Spec.Name, st.Outcome)
			mesh++
		}
	}
	if mesh == 0 {
		t.Fatal("no E20 mesh stream ran")
	}
}
