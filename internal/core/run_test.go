package core

import (
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/sim"
)

// Scenario integration tests run shortened versions of the paper's
// experiments and assert the published shape with tolerant bands; the
// full 117-minute numbers live in EXPERIMENTS.md and cmd/ctmsbench.

func shortA(d sim.Time) Config {
	c := TestCaseA()
	c.Duration = d
	return c
}

func shortB(d sim.Time) Config {
	c := TestCaseB()
	c.Duration = d
	c.Insertions = false // too rare to appear in a short run
	return c
}

func TestTestCaseAShape(t *testing.T) {
	r, err := Run(shortA(90 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	// The stream must be lossless and glitch-free on a private ring.
	if r.RxStats.Lost != 0 || r.RxStats.Duplicates != 0 || r.RxStats.Reordered != 0 {
		t.Fatalf("test case A must be clean: %+v", r.RxStats)
	}
	if r.Playout.Glitches != 0 {
		t.Fatalf("no glitches expected: %+v", r.Playout)
	}

	// Figure 5-3: min ≈10740 µs, ≈98% within ±160 µs of the ≈10894 µs
	// mean, small right tail.
	h7 := r.Truth.H[measure.H7TxToRx]
	if h7.Min() < 10650 || h7.Min() > 10850 {
		t.Fatalf("H7 min %v, want ≈10740", h7.Min())
	}
	if h7.Mean() < 10800 || h7.Mean() > 10990 {
		t.Fatalf("H7 mean %v, want ≈10894", h7.Mean())
	}
	if f := h7.FractionNear(h7.Mean(), 160); f < 0.95 {
		t.Fatalf("H7 concentration %v, want ≥0.95 (paper: 0.98)", f)
	}
	if h7.Max() > 16000 {
		t.Fatalf("H7 tail too long for an unloaded ring: %v", h7.Max())
	}

	// Histogram 6 on an idle transmitter: ≈2600 µs (2000 µs copy at
	// 1 µs/byte + ≈600 µs of code), unimodal.
	h6 := r.Truth.H[measure.H6EntryToPreTransmit]
	if h6.Mean() < 2450 || h6.Mean() > 2750 {
		t.Fatalf("H6 mean %v, want ≈2600", h6.Mean())
	}
	if f := h6.FractionNear(2600, 500); f < 0.97 {
		t.Fatalf("H6 should be unimodal at 2600 in case A: %v", f)
	}

	// Histogram 1 as seen by the PC/AT tool: 12 ms ± tool error (±120 µs).
	h1 := r.Hists.H[measure.H1InterIRQ]
	if h1.Mean() < 11990 || h1.Mean() > 12010 {
		t.Fatalf("H1 mean %v, want 12000", h1.Mean())
	}
	if h1.Min() < 12000-130 || h1.Max() > 12000+130 {
		t.Fatalf("H1 spread beyond the tool's ±120 µs error: [%v, %v]", h1.Min(), h1.Max())
	}

	// Histogram 5: IRQ→handler entry bounded by ≈440 µs (§5.2.2).
	h5 := r.Truth.H[measure.H5IRQToEntry]
	if h5.Max() > 700 {
		t.Fatalf("H5 max %v, want ≤≈440-700µs", h5.Max())
	}
	if r.TxCPUUtil > 0.5 {
		t.Fatalf("CTMSP transmitter should be lightly loaded: %.2f", r.TxCPUUtil)
	}
}

func TestTestCaseBShape(t *testing.T) {
	r, err := Run(shortB(4 * sim.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if r.RxStats.Lost != 0 || r.Playout.Glitches != 0 {
		t.Fatalf("B without insertions must still be lossless: %+v %+v", r.RxStats, r.Playout)
	}

	// Figure 5-2: bimodal — most packets at ≈2600, a secondary
	// concentration at ≈9400, mass in between, short tails.
	h6 := r.Truth.H[measure.H6EntryToPreTransmit]
	near2600 := h6.FractionNear(2600, 500)
	near9400 := h6.FractionNear(9400, 500)
	between := h6.FractionWithin(3100, 8900)
	if near2600 < 0.55 || near2600 > 0.85 {
		t.Fatalf("first H6 peak %v, paper has 0.68", near2600)
	}
	if near9400 < 0.07 {
		t.Fatalf("second H6 peak %v, paper has 0.15", near9400)
	}
	if between < 0.07 {
		t.Fatalf("H6 between-mass %v, paper has 0.165", between)
	}
	peaks := h6.Peaks(0.01)
	if len(peaks) < 2 {
		t.Fatalf("Figure 5-2 must be bimodal, peaks=%v", peaks)
	}

	// Figure 5-4: ≈76% at the ≈10900 peak, ≈21.5% in 11–15 ms,
	// a small 15–40 ms tail.
	h7 := r.Truth.H[measure.H7TxToRx]
	if h7.Min() < 10650 || h7.Min() > 10900 {
		t.Fatalf("H7 min %v, want ≈10750", h7.Min())
	}
	peak := h7.FractionWithin(10650, 11060)
	mid := h7.FractionWithin(11060, 15000)
	tail := h7.FractionWithin(15000, 40050)
	if peak < 0.6 || peak > 0.9 {
		t.Fatalf("H7 peak mass %v, paper has 0.76", peak)
	}
	if mid < 0.1 || mid > 0.35 {
		t.Fatalf("H7 11–15 ms mass %v, paper has 0.215", mid)
	}
	if tail > 0.08 {
		t.Fatalf("H7 15–40 ms mass %v, paper has 0.0249", tail)
	}
}

func TestStockUnixFailsAt150KBps(t *testing.T) {
	cfg := StockUnix(150_000)
	cfg.Duration = 90 * sim.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §1: "This test of data transport failed completely."
	if r.DeliveredFraction() > 0.95 {
		t.Fatalf("stock path at 150 KB/s should lose significant data: %.3f delivered", r.DeliveredFraction())
	}
	if r.Playout.Glitches < 10 {
		t.Fatalf("stock path at 150 KB/s should glitch constantly: %d", r.Playout.Glitches)
	}
}

func TestStockUnixWorksAt16KBps(t *testing.T) {
	cfg := StockUnix(16_000)
	cfg.Duration = 90 * sim.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// §1: "This worked extremely well within the current UNIX model."
	if r.DeliveredFraction() < 0.999 {
		t.Fatalf("stock path at 16 KB/s should deliver everything: %.4f", r.DeliveredFraction())
	}
	if r.Playout.Glitches != 0 {
		t.Fatalf("stock path at 16 KB/s should not glitch: %d", r.Playout.Glitches)
	}
}

func TestCTMSPBeatsStockAt150KBps(t *testing.T) {
	// The paper's central comparison at the CTMS rate.
	ctmsp := shortB(90 * sim.Second)
	rc, err := Run(ctmsp)
	if err != nil {
		t.Fatal(err)
	}
	stock := StockUnix(150_000)
	stock.Duration = 90 * sim.Second
	rs, err := Run(stock)
	if err != nil {
		t.Fatal(err)
	}
	if rc.DeliveredFraction() <= rs.DeliveredFraction() {
		t.Fatalf("CTMSP must beat the stock path: %.3f vs %.3f",
			rc.DeliveredFraction(), rs.DeliveredFraction())
	}
	if rc.Playout.Glitches >= rs.Playout.Glitches {
		t.Fatalf("CTMSP must glitch less: %d vs %d", rc.Playout.Glitches, rs.Playout.Glitches)
	}
}

func TestBufferSizingConclusion(t *testing.T) {
	// §6: "the buffer space needed for 150 KBytes/sec CTMSP data
	// transfer is under 25 KBytes."
	r, err := Run(shortB(3 * sim.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if r.Playout.MaxBufferBytes >= 25_000 {
		t.Fatalf("playout buffer high-water %d B, paper concludes <25 KB", r.Playout.MaxBufferBytes)
	}
}

func TestInsertionOutliers(t *testing.T) {
	// A forced insertion during the run produces the 120–130 ms class of
	// delivery gap and at most a small number of lost packets.
	cfg := shortB(60 * sim.Second)
	cfg.ForceInsertionAt = 20 * sim.Second
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ring.PurgeCount < 10 {
		t.Fatalf("insertion should cause a purge burst: %+v", r.Ring)
	}
	if r.RxStats.Lost == 0 {
		t.Fatal("a purge burst during a 166 KB/s stream should lose at least one packet")
	}
	if r.RxStats.Lost > 20 {
		t.Fatalf("purge losses should be bounded: %+v", r.RxStats)
	}
	// H4 (inter-arrival at the receiver) should show a >100 ms gap.
	h4 := r.Truth.H[measure.H4InterRxClassified]
	if h4.Max() < 100_000 {
		t.Fatalf("the outage should appear as a ≥100 ms receive gap, max=%v µs", h4.Max())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Results {
		r, err := Run(shortA(20 * sim.Second))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Sent != b.Sent || a.Delivered != b.Delivered {
		t.Fatalf("same seed must reproduce exactly: %d/%d vs %d/%d", a.Sent, a.Delivered, b.Sent, b.Delivered)
	}
	ha := a.Truth.H[measure.H7TxToRx]
	hb := b.Truth.H[measure.H7TxToRx]
	if ha.Mean() != hb.Mean() || ha.Max() != hb.Max() {
		t.Fatalf("histograms must be identical across runs: %v/%v vs %v/%v",
			ha.Mean(), ha.Max(), hb.Mean(), hb.Max())
	}
	// A different seed gives a (slightly) different realization.
	cfg := shortA(20 * sim.Second)
	cfg.Seed = 7777
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hc := c.Truth.H[measure.H7TxToRx]
	if hc.Mean() == ha.Mean() && hc.Max() == ha.Max() && hc.Stddev() == ha.Stddev() {
		t.Fatal("different seeds should differ in detail")
	}
}

func TestToolAgreement(t *testing.T) {
	// The PC/AT tool's histograms must agree with the logic analyzer
	// within the tool's error budget (quantization + polling loop).
	r, err := Run(shortA(30 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []measure.HistogramID{measure.H6EntryToPreTransmit, measure.H7TxToRx} {
		tool := r.Hists.H[id]
		truth := r.Truth.H[id]
		if tool.N() == 0 || truth.N() == 0 {
			t.Fatalf("%v: empty histogram", id)
		}
		diff := tool.Mean() - truth.Mean()
		if diff < -150 || diff > 150 {
			t.Fatalf("%v: tool mean %v vs truth %v — outside the error budget", id, tool.Mean(), truth.Mean())
		}
	}
}

func TestReportRenders(t *testing.T) {
	r, err := Run(shortA(10 * sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	out := r.Report()
	for _, want := range []string{"test-case-A", "stream:", "copies:", "Fig 5-2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if r.Throughput() < 160_000 {
		t.Fatalf("throughput: %f", r.Throughput())
	}
}

// TestIntervalSetsThePacketPeriod runs both protocols at twice the paper's
// 12 ms period: the source must send half as many packets, and the
// playout buffer, which drains at PacketBytes per Interval, must stay
// about as full as at 12 ms instead of filling with packets arriving
// twice as fast as it plays them.
func TestIntervalSetsThePacketPeriod(t *testing.T) {
	for _, base := range []Config{TestCaseA(), StockUnix(16_000)} {
		t.Run(base.Protocol.String(), func(t *testing.T) {
			run := func(interval sim.Time) *Results {
				c := base
				c.Duration = 6 * sim.Second
				c.Interval = interval
				r, err := Run(c)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			at12, at24 := run(12*sim.Millisecond), run(24*sim.Millisecond)
			if at24.Sent < 240 || at24.Sent > 260 {
				t.Fatalf("sent %d packets in 6 s at 24 ms, want ≈250", at24.Sent)
			}
			if hw12, hw24 := at12.Playout.MaxBufferBytes, at24.Playout.MaxBufferBytes; hw24 > 2*hw12 {
				t.Fatalf("playout high-water %d B at 24 ms, %d B at 12 ms", hw24, hw12)
			}
		})
	}
}
