package workload

import (
	"math"
	"testing"

	"repro/internal/inet"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

func newRing() (*sim.Scheduler, *ring.Ring) {
	sched := sim.NewScheduler()
	return sched, ring.New(sched, ring.DefaultConfig())
}

func TestMACGenHitsTargetUtilization(t *testing.T) {
	for _, util := range []float64{0.002, 0.010} {
		sched, r := newRing()
		mon := r.Attach("monitor")
		g := NewMACGen(r, mon, util, 1)
		sched.RunUntil(5 * sim.Minute)
		g.Stop()
		got := r.Utilization()
		if math.Abs(got-util) > util*0.25 {
			t.Fatalf("target util %.4f, got %.4f", util, got)
		}
		// §4: 0.2%–1.0% of a 4 Mbit ring in 20-byte MAC frames is
		// 50–250 interrupts per second.
		perSec := float64(g.Frames()) / (5 * 60)
		want := util * 4_000_000 / 8 / 20
		if math.Abs(perSec-want) > want*0.25 {
			t.Fatalf("MAC rate %.0f/s, want ≈%.0f/s", perSec, want)
		}
	}
}

func TestChatterGenSizesInRange(t *testing.T) {
	sched, r := newRing()
	src := r.Attach("src")
	dst := r.Attach("dst")
	var sizes []int
	r.AddTap(func(f *ring.Frame, _, _ sim.Time, _ ring.DeliveryStatus) {
		sizes = append(sizes, f.Size)
	})
	g := NewChatterGen(r, src, dst, 60, 300, 50*sim.Millisecond, 2)
	sched.RunUntil(10 * sim.Second)
	g.Stop()
	if len(sizes) < 100 {
		t.Fatalf("too little chatter: %d frames", len(sizes))
	}
	for _, s := range sizes {
		if s < 60 || s > 300 {
			t.Fatalf("frame size %d outside the keep-alive class", s)
		}
	}
}

func TestFileTransferGenBursts(t *testing.T) {
	sched, r := newRing()
	src := r.Attach("src")
	dst := r.Attach("dst")
	count := 0
	r.AddTap(func(f *ring.Frame, _, _ sim.Time, _ ring.DeliveryStatus) {
		if f.Size != 1522 {
			t.Errorf("file transfer frames are 1522 bytes, got %d", f.Size)
		}
		count++
	})
	g := NewFileTransferGen(r, src, dst, 200*sim.Millisecond, 3*sim.Millisecond, 3)
	g.SetBurst(10*sim.Millisecond, 200*sim.Millisecond, 1.2)
	sched.RunUntil(20 * sim.Second)
	g.Stop()
	if g.Bursts() < 50 {
		t.Fatalf("too few bursts: %d", g.Bursts())
	}
	// A frame queued in the ring at the cutoff may not have hit the tap.
	if count == 0 || uint64(count) > g.Frames() || g.Frames()-uint64(count) > 2 {
		t.Fatalf("frame accounting: tap=%d gen=%d", count, g.Frames())
	}
	if float64(count)/float64(g.Bursts()) < 2 {
		t.Fatalf("bursts should average several frames: %f", float64(count)/float64(g.Bursts()))
	}
}

func TestInsertionGenCausesPurges(t *testing.T) {
	sched, r := newRing()
	r.Attach("am")
	g := NewInsertionGen(r, 30*sim.Minute, 4)
	sched.RunUntil(4 * time120())
	g.Stop()
	sched.Run()
	if g.Insertions() == 0 {
		t.Fatal("insertions should occur over 8 hours at a 30 min mean")
	}
	c := r.Counters()
	if c.PurgeCount < g.Insertions()*10 {
		t.Fatalf("each insertion causes ≥10 purges: %d insertions, %d purges", g.Insertions(), c.PurgeCount)
	}
}

func time120() sim.Time { return 2 * sim.Hour }

func TestInsertionRateMatchesPaper(t *testing.T) {
	// ~20/day means a 117-minute run should usually see a couple.
	sched, r := newRing()
	r.Attach("am")
	g := NewInsertionGen(r, sim.Hour+12*sim.Minute, 7) // 20/day
	sched.RunUntil(117 * sim.Minute)
	g.Stop()
	sched.Run()
	if g.Insertions() > 6 {
		t.Fatalf("insertion rate too high for ~20/day: %d in 117 min", g.Insertions())
	}
}

func TestKeepAliveGenLoadsOwnStack(t *testing.T) {
	sched, r := newRing()
	drv := tradapter.NewHost(r, "tx", 5, tradapter.StockConfig())
	stack := inet.NewStack(drv)
	peer := inet.NewStack(tradapter.NewHost(r, "peer", 5, tradapter.StockConfig()))

	g := NewKeepAliveGen(sched, stack, peer.Addr(), 60, 300, 500*sim.Millisecond, 6)
	sched.RunUntil(30 * sim.Second)
	g.Stop()
	sched.Run()
	if g.Sent() < 30 {
		t.Fatalf("too few keep-alives: %d", g.Sent())
	}
	// The point of this generator: it burns the sender's CPU and driver.
	if drv.Kernel().CPU().Stats().BusyTime == 0 {
		t.Fatal("keep-alives must consume the sending machine's CPU")
	}
	if drv.Stats().TxQueued[0]+drv.Stats().TxQueued[1] == 0 {
		t.Fatal("keep-alives must pass through the sender's driver")
	}
}
