package workload

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// TestFileTransferFramesOutliveTheirReceiver sends file-transfer bursts to
// an adapter that runs out of rx buffers, with frames in card latency
// while others sit in buffers. A pooled frame must not be handed out
// again while the driver still holds it: the pool clears every frame it
// takes back, so a frame recycled too early reaches classification
// empty, or carrying a later frame's sequence number.
func TestFileTransferFramesOutliveTheirReceiver(t *testing.T) {
	sched, r := newRing()
	src := r.Attach("file-server")
	cfg := tradapter.StockConfig()
	cfg.RxBuffers = 2
	drv := tradapter.NewHost(r, "client", 5, cfg)

	var (
		classified int
		lastSeq    uint64
		frames     = map[*ring.Frame]bool{}
		prog       []rtpc.Seg
	)
	drv.SetHandler(tradapter.ClassIP, func(rcv *tradapter.Received) []rtpc.Seg {
		f := rcv.Frame
		if f.Size != 1522 || f.Src != src.Addr() || f.Kind != ring.LLC {
			t.Fatalf("frame %d reached classification recycled: %+v", classified, *f)
		}
		if classified > 0 && f.Seq <= lastSeq {
			t.Fatalf("frame %d classified with seq %d after seq %d: its storage was reused", classified, f.Seq, lastSeq)
		}
		lastSeq = f.Seq
		classified++
		frames[f] = true
		// A slow receive path keeps the buffer long past the next frames'
		// arrival, so the adapter runs out of rx buffers.
		prog = append(prog[:0], rtpc.Do(8*sim.Millisecond), rcv.ReleaseSeg())
		return prog
	})

	g := NewFileTransferGen(r, src, drv.Station(), 100*sim.Millisecond, sim.Millisecond, 3)
	sched.RunUntil(20 * sim.Second)
	g.Stop()

	st := drv.Stats()
	if classified < 100 || st.RxNoBuffer == 0 || r.Counters().NotCopied == 0 {
		t.Fatalf("no rx-buffer exhaustion to test: %d classified, %d rx drops, %d not copied",
			classified, st.RxNoBuffer, r.Counters().NotCopied)
	}
	if len(frames) >= classified/4 {
		t.Fatalf("%d classified frames used %d distinct frames: the generator does not reuse them", classified, len(frames))
	}
}
