package playout

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestPlayoutSteadyStream(t *testing.T) {
	p := New(150_000, 40*sim.Millisecond)
	// 1800 bytes every 12 ms = exactly 150 KB/s.
	for i := 0; i < 100; i++ {
		p.Deliver(1800, sim.Time(i)*12*sim.Millisecond)
	}
	st := p.Finish(100 * 12 * sim.Millisecond)
	if st.Glitches != 0 {
		t.Fatalf("steady stream must not glitch: %+v", st)
	}
	if st.Delivered != 100 {
		t.Fatalf("delivery count: %+v", st)
	}
	// The buffer holds at most the prebuffer plus one packet's worth.
	if st.MaxBufferBytes > 1800+6000+1 {
		t.Fatalf("steady-state buffer too large: %d", st.MaxBufferBytes)
	}
}

func TestPlayoutUnderrunDetected(t *testing.T) {
	p := New(150_000, 10*sim.Millisecond)
	p.Deliver(1800, 0)
	// Next packet 100 ms late: the converter starves.
	p.Deliver(1800, 100*sim.Millisecond)
	st := p.Finish(200 * sim.Millisecond)
	if st.Glitches == 0 {
		t.Fatal("late packet should cause a glitch")
	}
	if st.StarvedTime <= 0 {
		t.Fatal("starved time should accumulate")
	}
}

func TestPlayoutPrebufferAbsorbsJitter(t *testing.T) {
	// A 40 ms prebuffer absorbs the paper's worst-case 40 ms delivery.
	p := New(150_000, 40*sim.Millisecond)
	at := sim.Time(0)
	for i := 0; i < 50; i++ {
		p.Deliver(1800, at)
		at += 12 * sim.Millisecond
	}
	// One packet held up 38 ms, stream resumes on schedule afterwards.
	p.Deliver(1800, at+38*sim.Millisecond)
	at += 12 * sim.Millisecond
	for i := 0; i < 50; i++ {
		p.Deliver(1800, at)
		at += 12 * sim.Millisecond
	}
	st := p.Finish(at)
	if st.Glitches != 0 {
		t.Fatalf("40 ms prebuffer should absorb a 38 ms late packet: %+v", st)
	}
}

func TestPlayoutBufferNeverNegative(t *testing.T) {
	f := func(gaps []uint8) bool {
		p := New(150_000, 20*sim.Millisecond)
		at := sim.Time(0)
		for _, g := range gaps {
			at += sim.Time(g) * sim.Millisecond
			p.Deliver(1800, at)
			if p.BufferBytes() < 0 {
				return false
			}
		}
		st := p.Finish(at + sim.Second)
		return st.MaxBufferBytes >= 0 && st.BytesPlayed >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlayoutConservation(t *testing.T) {
	// Bytes delivered = bytes played + buffer remaining (+ rounding).
	p := New(150_000, 5*sim.Millisecond)
	var in int64
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		p.Deliver(1800, at)
		in += 1800
		at += 12 * sim.Millisecond
	}
	st := p.Finish(at + 10*sim.Second) // drain fully
	if st.BytesPlayed < in-1 || st.BytesPlayed > in {
		t.Fatalf("conservation violated: in=%d played=%d", in, st.BytesPlayed)
	}
}
