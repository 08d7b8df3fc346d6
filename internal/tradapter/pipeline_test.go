package tradapter

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// TestDoubleBufferingPipelinesCopyAndWire: with two fixed DMA buffers the
// copy of packet n+1 overlaps packet n's DMA/wire phase, so back-to-back
// throughput beats the single-buffered driver.
func TestDoubleBufferingPipelinesCopyAndWire(t *testing.T) {
	run := func(txBuffers int) sim.Time {
		sched := sim.NewScheduler()
		r := ring.New(sched, ring.DefaultConfig())
		cfg := DefaultConfig()
		cfg.TxBuffers = txBuffers
		tx := NewHost(r, "tx", 7, cfg)
		rxCfg := DefaultConfig()
		rxCfg.DMABufferKind = rtpc.SystemMemory
		rx := NewHost(r, "rx", 7, rxCfg)
		done := 0
		rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
			done++
			rcv.Release()
			return nil
		})
		for i := 0; i < 20; i++ {
			tx.Output(mkPacket(tx.k, 2000, ClassCTMSP, rx.Station().Addr()))
		}
		sched.Run()
		if done != 20 {
			t.Fatalf("txBuffers=%d: delivered %d/20", txBuffers, done)
		}
		return sched.Now()
	}
	single := run(1)
	double := run(2)
	if double >= single {
		t.Fatalf("double buffering should pipeline: %v vs %v", double, single)
	}
	// The saving per packet is roughly the 2.1 ms copy time.
	if single-double < 20*sim.Millisecond {
		t.Fatalf("pipelining saving too small: %v", single-double)
	}
}

// TestPipelineOrderPreserved: even with the copy stage running ahead, the
// wire stage must serialize in submission order.
func TestPipelineOrderPreserved(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	var got []int
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		got = append(got, rcv.Frame.Payload.(*Outgoing).Chain.Tag.(int))
		rcv.Release()
		return nil
	})
	dst := rx.Station().Addr()
	// Mixed sizes so copy times differ — order must still hold.
	sizes := []int{2000, 100, 1500, 60, 2000, 300}
	for i, s := range sizes {
		p := mkPacket(tx.k, s, ClassCTMSP, dst)
		p.Chain.Tag = i
		tx.Output(p)
	}
	sched.Run()
	if len(got) != len(sizes) {
		t.Fatalf("delivered %d/%d", len(got), len(sizes))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("wire order broken: %v", got)
		}
	}
}

// TestWireThroughputBound: the ring serializes frames, so 2000-byte
// packets cannot complete faster than their wire time no matter how many
// buffers the driver has.
func TestWireThroughputBound(t *testing.T) {
	sched, _, tx, rx := pair(t, DefaultConfig())
	var times []sim.Time
	rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
		times = append(times, rcv.At)
		rcv.Release()
		return nil
	})
	dst := rx.Station().Addr()
	for i := 0; i < 10; i++ {
		tx.Output(mkPacket(tx.k, 2000, ClassCTMSP, dst))
	}
	sched.Run()
	wire := sim.WireTime(2021, 4_000_000)
	for i := 1; i < len(times); i++ {
		if d := times[i] - times[i-1]; d < wire {
			t.Fatalf("packets %d spaced %v, below the %v wire time", i, d, wire)
		}
	}
}
