package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/measure"
	"repro/internal/sim"
)

// TestInstrumentsGolden pins what the §5 instruments produce end to end:
// every tool's Report and the seven histograms of both the configured
// tool and the logic analyzer, for both test cases and the stock relay,
// plus the tool-validation (E10) and TAP-debugging (E13) comparisons at
// smoke scale. A refactor of the probe, recorder or histogram path must
// leave these bytes unchanged; re-pin with `make goldens` only for an
// intended change, and review the diff.
func TestInstrumentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine scenarios and two experiments")
	}
	var b strings.Builder
	for _, base := range []Config{TestCaseA(), TestCaseB(), StockUnix(16_000)} {
		for _, tool := range []Tool{ToolPCAT, ToolPseudoDev, ToolLogicAnalyzer} {
			cfg := base
			cfg.Duration = 5 * sim.Second
			cfg.Tool = tool
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(r.Report())
			writeHistogramSet(&b, "hists", r.Hists)
			writeHistogramSet(&b, "truth", r.Truth)
		}
	}
	smoke := Scale{Duration: 30 * sim.Second}
	fmt.Fprintf(&b, "=== E10 ===\n%s", runE10(smoke).Render())
	fmt.Fprintf(&b, "=== E13 ===\n%s", runE13(smoke).Render())
	golden.Check(t, filepath.Join("testdata", "instruments.golden"), []byte(b.String()))
}

func writeHistogramSet(b *strings.Builder, name string, hs *measure.HistogramSet) {
	for id, h := range hs.H {
		fmt.Fprintf(b, "%s H%d n=%d mean=%v sd=%v min=%v max=%v p50=%v p99=%v\n",
			name, id+1, h.N(), h.Mean(), h.Stddev(), h.Min(), h.Max(), h.Quantile(0.5), h.Quantile(0.99))
	}
}
