package core

import (
	"fmt"
	"strings"

	"repro/internal/ctmsp"
	"repro/internal/measure"
	"repro/internal/playout"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// Results collects everything one scenario run produces.
type Results struct {
	Config  Config
	Elapsed sim.Time

	// Hists are the seven §5.3 histograms as the configured tool
	// recorded them; Truth is the logic analyzer's exact view.
	Hists *measure.HistogramSet
	Truth *measure.HistogramSet

	// Stream accounting.
	Sent      uint64
	Delivered uint64
	RxStats   ctmsp.RxStats
	Playout   playout.Stats

	// Substrate accounting.
	Ring      ring.Counters
	TxDriver  tradapter.Stats
	TxCPUUtil float64
	RxCPUUtil float64

	Copies CopyLedger
}

// Throughput reports the delivered stream rate in bytes/second.
func (r *Results) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Delivered) * float64(r.Config.PacketBytes) / r.Elapsed.Seconds()
}

// DeliveredFraction reports delivered/sent.
func (r *Results) DeliveredFraction() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Sent)
}

// Report renders a human-readable summary of the run.
func (r *Results) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s (%v, seed %d, tool %s) ===\n", r.Config.Name, r.Elapsed, r.Config.Seed, r.Config.Tool)
	fmt.Fprintf(&b, "stream: sent=%d delivered=%d (%.3f%%) throughput=%.1f KB/s\n",
		r.Sent, r.Delivered, 100*r.DeliveredFraction(), r.Throughput()/1000)
	fmt.Fprintf(&b, "loss: gaps=%d lost=%d dups=%d reordered=%d\n",
		r.RxStats.Gaps, r.RxStats.Lost, r.RxStats.Duplicates, r.RxStats.Reordered)
	fmt.Fprintf(&b, "playout: glitches=%d starved=%v maxBuffer=%dB\n",
		r.Playout.Glitches, r.Playout.StarvedTime, r.Playout.MaxBufferBytes)
	fmt.Fprintf(&b, "ring: util=%.2f%% frames=%d purges=%d purgeLost=%d insertions=%d\n",
		100*float64(r.Ring.BusyTime)/float64(r.Elapsed), r.Ring.FramesSent,
		r.Ring.PurgeCount, r.Ring.PurgeLost, r.Ring.InsertionSeen)
	fmt.Fprintf(&b, "cpu: tx=%.1f%% rx=%.1f%%\n", 100*r.TxCPUUtil, 100*r.RxCPUUtil)
	fmt.Fprintf(&b, "copies: %d total (%d CPU, %d DMA)\n",
		r.Copies.Total(), r.Copies.CPUCopies(), r.Copies.DMACopies())
	if r.Hists != nil {
		for id := measure.H1InterIRQ; id < measure.NumHistograms; id++ {
			h := r.Hists.H[id]
			if h.N() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%-48s n=%-7d mean=%8.0fµs sd=%7.0fµs min=%8.0fµs max=%8.0fµs\n",
				h.Label, h.N(), h.Mean(), h.Stddev(), h.Min(), h.Max())
		}
	}
	return b.String()
}

func errf(format string, args ...any) error { return fmt.Errorf("core: "+format, args...) }
