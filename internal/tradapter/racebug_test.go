package tradapter

import (
	"testing"

	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// TestUnprotectedQueueBugReorders reproduces §5's driver bug: with a deep
// output backlog, the unprotected queue occasionally serves packets out
// of order; the fixed driver never does.
func TestUnprotectedQueueBugReorders(t *testing.T) {
	run := func(buggy bool) (reordered int, races uint64) {
		sched := sim.NewScheduler()
		r := ring.New(sched, ring.DefaultConfig())
		cfg := DefaultConfig()
		cfg.UnprotectedQueueBug = buggy
		tx := NewHost(r, "tx", 7, cfg)
		rxCfg := DefaultConfig()
		rxCfg.DMABufferKind = rtpc.SystemMemory
		rx := NewHost(r, "rx", 7, rxCfg)

		var got []int
		rx.SetHandler(ClassCTMSP, func(rcv *Received) []rtpc.Seg {
			got = append(got, rcv.Frame.Payload.(*Outgoing).Chain.Tag.(int))
			rcv.Release()
			return nil
		})
		dst := rx.Station().Addr()
		// A deep backlog, as a ring outage would leave behind.
		for i := 0; i < 60; i++ {
			p := mkPacket(tx.k, 1500, ClassCTMSP, dst)
			p.Chain.Tag = i
			tx.Output(p)
		}
		sched.Run()
		if len(got) != 60 {
			t.Fatalf("delivered %d/60", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				reordered++
			}
		}
		return reordered, tx.Stats().QueueRaces
	}

	reordered, races := run(true)
	if reordered == 0 || races == 0 {
		t.Fatalf("buggy driver should reorder under backlog: %d reordered, %d races", reordered, races)
	}
	reordered, races = run(false)
	if reordered != 0 || races != 0 {
		t.Fatalf("protected driver must never reorder: %d reordered, %d races", reordered, races)
	}
}
