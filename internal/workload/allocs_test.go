//go:build !race

package workload

import (
	"runtime"
	"testing"

	"repro/internal/inet"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// TestGeneratorsAllocateNothingPerFrame runs the MAC, chatter,
// file-transfer and keep-alive generators together — file transfers and
// keep-alives into real adapters and protocol stacks — and measures a
// window after warm-up, when the pools have reached their high-water
// marks. The window ends before the stacks' 5-minute ARP refresh, which
// allocates. What the window may still show is a rare new high-water
// mark and the test process's own runtime noise: a handful of
// allocations against tens of thousands of frames, where one allocation
// per frame would be tens of thousands. The race detector's
// instrumentation allocates, so this file is built without it.
func TestGeneratorsAllocateNothingPerFrame(t *testing.T) {
	sched, r := newRing()
	host := func(name string) (*inet.Stack, *ring.Station) {
		drv := tradapter.NewHost(r, name, 5, tradapter.StockConfig())
		return inet.NewStack(drv), drv.Station()
	}
	tx, _ := host("tx")
	_, rx := host("rx")
	a, b := r.Attach("afs-server"), r.Attach("afs-client")

	mac := NewMACGen(r, r.Attach("monitor"), 0.01, 1)
	chat := NewChatterGen(r, a, b, 60, 300, 20*sim.Millisecond, 2)
	ft := NewFileTransferGen(r, r.Attach("file-server"), rx, 300*sim.Millisecond, 5*sim.Millisecond, 3)
	ft.SetBurst(10*sim.Millisecond, 40*sim.Millisecond, 1.2)
	ka := NewKeepAliveGen(sched, tx, rx.Addr(), 60, 300, 50*sim.Millisecond, 4)

	sched.RunUntil(60 * sim.Second)
	counts := func() [4]uint64 { return [4]uint64{mac.Frames(), chat.Frames(), ft.Frames(), ka.Sent()} }
	c0 := counts()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	sched.RunUntil(240 * sim.Second)
	runtime.ReadMemStats(&ms)
	mallocs, c1 := ms.Mallocs-m0, counts()

	var frames uint64
	for i, name := range []string{"MAC", "chatter", "file-transfer", "keep-alive"} {
		n := c1[i] - c0[i]
		if n < 1000 {
			t.Fatalf("the %s generator sent only %d frames in the window", name, n)
		}
		frames += n
	}
	per := float64(mallocs) / float64(frames)
	t.Logf("window: %d frames, %d mallocs, %.5f allocs/frame", frames, mallocs, per)
	if per > 0.001 {
		t.Fatalf("the generators allocate %.5f times per frame in steady state, want 0", per)
	}
}
