package ctms_test

import (
	"strings"
	"testing"
	"time"

	ctms "repro"
)

func TestPublicRunTestCaseA(t *testing.T) {
	opts := ctms.TestCaseA()
	opts.Duration = 20 * time.Second
	res, err := ctms.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "test-case-A" {
		t.Fatalf("name: %q", res.Name)
	}
	if res.Sent < 1600 || res.DeliveredFraction() < 0.999 {
		t.Fatalf("stream: sent=%d delivered=%.4f", res.Sent, res.DeliveredFraction())
	}
	h7 := res.Histograms[ctms.HistTxToRx]
	if h7.N == 0 || h7.MinMicros < 10600 || h7.MinMicros > 10900 {
		t.Fatalf("H7 min: %v", h7.MinMicros)
	}
	if len(h7.Bins) == 0 || !strings.Contains(h7.Rendered, "#") {
		t.Fatal("public histogram missing bins/render")
	}
	if f := h7.FractionWithin(10_000, 20_000); f != 1 {
		t.Fatalf("all samples should be 10–20 ms in case A: %v", f)
	}
	if q := h7.QuantileMicros(0.5); q < h7.MinMicros || q > h7.MaxMicros {
		t.Fatalf("median out of range: %v", q)
	}
	if res.TotalMoves != res.CPUCopies+res.DMACopies {
		t.Fatal("copy arithmetic broken")
	}
	if !strings.Contains(res.Report, "test-case-A") {
		t.Fatal("report missing")
	}
}

func TestPublicOptionValidation(t *testing.T) {
	opts := ctms.TestCaseA()
	opts.Protocol = "carrier-pigeon"
	if _, err := ctms.Run(opts); err == nil {
		t.Fatal("bad protocol must error")
	}
	opts = ctms.TestCaseA()
	opts.Tool = "sundial"
	if _, err := ctms.Run(opts); err == nil {
		t.Fatal("bad tool must error")
	}
	opts = ctms.TestCaseA()
	opts.NetworkLoad = "apocalyptic"
	if _, err := ctms.Run(opts); err == nil {
		t.Fatal("bad load must error")
	}
	opts = ctms.TestCaseA()
	opts.Duration = 0
	if _, err := ctms.Run(opts); err == nil {
		t.Fatal("zero duration must error")
	}
}

func TestPublicStockBaseline(t *testing.T) {
	opts := ctms.StockUnixAt(150_000)
	opts.Duration = 30 * time.Second
	res, err := ctms.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Glitches == 0 && res.DeliveredFraction() > 0.98 {
		t.Fatalf("stock at 150 KB/s should struggle: %.3f delivered, %d glitches",
			res.DeliveredFraction(), res.Glitches)
	}
	if res.CPUCopies != 4 {
		t.Fatalf("stock path CPU copies: %d", res.CPUCopies)
	}
}

func TestPublicRoundTripOptions(t *testing.T) {
	// Presets survive the Options⇄core conversion.
	for _, opts := range []ctms.Options{ctms.TestCaseA(), ctms.TestCaseB(), ctms.StockUnixAt(16_000)} {
		if opts.Interval != 12*time.Millisecond {
			t.Fatalf("%s: interval %v", opts.Name, opts.Interval)
		}
		if opts.Duration == 0 || opts.PacketBytes == 0 {
			t.Fatalf("%s: incomplete preset %+v", opts.Name, opts)
		}
	}
	b := ctms.TestCaseB()
	if b.NetworkLoad != ctms.LoadNormal || !b.PublicNetwork {
		t.Fatalf("B preset environment wrong: %+v", b)
	}
}

func TestPublicForcedInsertion(t *testing.T) {
	opts := ctms.TestCaseB()
	opts.Duration = 40 * time.Second
	opts.Insertions = false
	// +7 ms into a 12 ms cycle, a CTMSP frame is mid-wire, so the purge
	// destroys it deterministically.
	opts.ForceInsertionAt = 15*time.Second + 7*time.Millisecond
	res, err := ctms.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RingPurges < 10 {
		t.Fatalf("forced insertion should purge: %d", res.RingPurges)
	}
	// The burst blocks the ring for 100–130 ms: the receiver must see a
	// gap of that size in packet arrivals (and may lose the one frame
	// that was on the wire).
	h4 := res.Truth[ctms.HistInterRxClassified]
	if h4.MaxMicros < 90_000 {
		t.Fatalf("insertion outage should show as a ≥100 ms receive gap, max=%v µs", h4.MaxMicros)
	}
}

// With the logic analyzer as the tool, the reported histograms are the
// truth set, converted once and shared; another tool's are its own.
func TestPublicResultSharesTruthWithLogicAnalyzer(t *testing.T) {
	for _, tool := range []ctms.Tool{ctms.LogicAnalyzer, ctms.PCAT} {
		opts := ctms.TestCaseA()
		opts.Duration = 5 * time.Second
		opts.Tool = tool
		res, err := ctms.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Histograms {
			if shared := res.Histograms[i] == res.Truth[i]; shared != (tool == ctms.LogicAnalyzer) {
				t.Fatalf("%s: histogram %d shared with truth is %v", tool, i, shared)
			}
		}
	}
}
