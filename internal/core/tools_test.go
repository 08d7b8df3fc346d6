package core

import (
	"testing"

	"repro/internal/measure"
	"repro/internal/sim"
)

// TestPseudoDevTool runs a scenario measured by the in-kernel recorder,
// which cannot see the IRQ line and perturbs what it measures.
func TestPseudoDevTool(t *testing.T) {
	cfg := TestCaseA()
	cfg.Duration = 20 * sim.Second
	cfg.Tool = ToolPseudoDev
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The pseudo device records P2/P3 (on the transmitter) but not P1.
	if r.Hists.H[measure.H1InterIRQ].N() != 0 {
		t.Fatal("pseudo device cannot observe the IRQ line")
	}
	if r.Hists.H[measure.H2InterEntry].N() == 0 || r.Hists.H[measure.H3InterPreTransmit].N() == 0 {
		t.Fatal("pseudo device should record software points")
	}
	// Its timestamps quantize to the 122 µs clock.
	h6 := r.Hists.H[measure.H6EntryToPreTransmit]
	truth := r.Truth.H[measure.H6EntryToPreTransmit]
	if h6.N() == 0 {
		t.Fatal("H6 empty under the pseudo device")
	}
	if d := h6.Mean() - truth.Mean(); d < -250 || d > 250 {
		t.Fatalf("pseudo device H6 mean off by %v µs", d)
	}
	// The recording cost itself shows up as extra transmitter CPU
	// relative to the logic analyzer run.
	cfg2 := cfg
	cfg2.Tool = ToolLogicAnalyzer
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r.TxCPUUtil <= r2.TxCPUUtil {
		t.Fatalf("pseudo device must perturb the measured machine: %.4f vs %.4f",
			r.TxCPUUtil, r2.TxCPUUtil)
	}
}

// TestCopyHeaderOnlyScenario exercises §5.3's "copy only header" toggle
// end to end: the send path loses its 2000 µs copy.
func TestCopyHeaderOnlyScenario(t *testing.T) {
	cfg := TestCaseA()
	cfg.Duration = 20 * sim.Second
	cfg.TxCopyHeaderOnly = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h6 := r.Truth.H[measure.H6EntryToPreTransmit]
	if h6.Mean() > 1000 {
		t.Fatalf("header-only copy should collapse H6 to code cost: %.0f µs", h6.Mean())
	}
	if r.RxStats.Lost != 0 {
		t.Fatalf("stream integrity: %+v", r.RxStats)
	}
}

// TestPointerTransferScenario exercises the §2 extension end to end.
func TestPointerTransferScenario(t *testing.T) {
	cfg := TestCaseA()
	cfg.Duration = 20 * sim.Second
	cfg.PointerTransfer = true
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h6 := r.Truth.H[measure.H6EntryToPreTransmit]
	if h6.Mean() > 900 {
		t.Fatalf("pointer transfer should eliminate the copy: H6 mean %.0f µs", h6.Mean())
	}
	base := TestCaseA()
	base.Duration = 20 * sim.Second
	rb, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if r.TxCPUUtil >= rb.TxCPUUtil {
		t.Fatalf("pointer transfer should cut transmitter CPU: %.3f vs %.3f", r.TxCPUUtil, rb.TxCPUUtil)
	}
}

// TestHeavyLoadStillDelivers pushes the ring to LoadHeavy: CTMSP should
// degrade gracefully (priority protects it) rather than collapse.
func TestHeavyLoadStillDelivers(t *testing.T) {
	cfg := TestCaseB()
	cfg.Duration = 60 * sim.Second
	cfg.Insertions = false
	cfg.NetworkLoad = LoadHeavy
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredFraction() < 0.995 {
		t.Fatalf("ring priority should protect the stream under heavy load: %.4f", r.DeliveredFraction())
	}
}

// TestExperimentMatrixRuns executes every experiment at a tiny scale so
// the matrix itself stays healthy.
func TestExperimentMatrixRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is slow")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			cmp := e.Run(Scale{Duration: 20 * sim.Second})
			if len(cmp.Metrics) == 0 {
				t.Fatal("no metrics")
			}
			if cmp.Render() == "" {
				t.Fatal("empty render")
			}
			// At this tiny scale distribution-shape metrics may wobble;
			// structural metrics must still hold for E2/E7/E10, and E9/E13
			// schedule their forced insertions relative to the run.
			switch e.ID {
			case "E2", "E7", "E9", "E10", "E13":
				if !cmp.AllOK() {
					t.Fatalf("structural experiment deviated:\n%s", cmp.Render())
				}
			}
		})
	}
	if _, ok := ExperimentByID("E99"); ok {
		t.Fatal("unknown IDs must not resolve")
	}
}
