package media

import (
	"fmt"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
)

// trackPlayer is one presentation device: it buffers a track's bytes and
// consumes them at the track's natural rate after a prebuffer delay,
// counting underruns.
type trackPlayer struct {
	rateBytesPerSec float64
	prebuffer       sim.Time

	started bool
	playAt  sim.Time
	lastT   sim.Time
	buffer  float64
	starved bool

	glitches    uint64
	starvedTime sim.Time
	maxBuffer   int
	played      int64
}

func (p *trackPlayer) drainTo(t sim.Time) {
	if !p.started || t <= p.lastT {
		return
	}
	from := p.lastT
	if from < p.playAt {
		from = p.playAt
	}
	if t <= from {
		p.lastT = t
		return
	}
	need := p.rateBytesPerSec * (t - from).Seconds()
	if need <= p.buffer {
		p.buffer -= need
		p.played += int64(need)
		p.starved = false
	} else {
		p.played += int64(p.buffer)
		short := need - p.buffer
		p.buffer = 0
		p.starvedTime += sim.Time(short / p.rateBytesPerSec * float64(sim.Second))
		if !p.starved {
			p.glitches++
			p.starved = true
		}
	}
	p.lastT = t
}

func (p *trackPlayer) deliver(n int, t sim.Time) {
	if !p.started {
		p.started = true
		p.playAt = t + p.prebuffer
		p.lastT = t
	}
	p.drainTo(t)
	p.buffer += float64(n)
	if int(p.buffer) > p.maxBuffer {
		p.maxBuffer = int(p.buffer)
	}
}

// TrackStats is the presentation outcome of one track.
type TrackStats struct {
	Track          uint8
	Kind           TrackKind
	BytesReceived  int
	Glitches       uint64
	StarvedTime    sim.Time
	MaxBufferBytes int
}

// ClientStats aggregates the client side.
type ClientStats struct {
	Packets    uint64
	Duplicates uint64
	Lost       uint64
	BadPayload uint64
}

// Client is the presentation machine: it hangs off the Token Ring
// driver's CTMSP split point, demultiplexes tracks, reassembles chunks
// and feeds per-track playout buffers.
type Client struct {
	k         *kernel.Kernel
	recv      ctmsp.Receiver
	players   map[uint8]*trackPlayer
	received  map[uint8][]byte
	kinds     map[uint8]TrackKind
	prebuffer sim.Time
	stats     ClientStats
}

// NewClient installs the client on drv's CTMSP split point, expecting the
// given tracks. prebuffer delays each track's playback after its first
// byte arrives.
func NewClient(k *kernel.Kernel, drv *tradapter.Driver, tracks []Track, prebuffer sim.Time) (*Client, error) {
	if len(tracks) == 0 {
		return nil, fmt.Errorf("media: client needs at least one track")
	}
	c := &Client{
		k:         k,
		players:   make(map[uint8]*trackPlayer),
		received:  make(map[uint8][]byte),
		kinds:     make(map[uint8]TrackKind),
		prebuffer: prebuffer,
	}
	for _, t := range tracks {
		if t.RateBytesPerSec == 0 {
			return nil, fmt.Errorf("media: track %d has zero rate", t.ID)
		}
		c.players[t.ID] = &trackPlayer{rateBytesPerSec: float64(t.RateBytesPerSec), prebuffer: prebuffer}
		c.kinds[t.ID] = t.Kind
	}
	drv.SetHandler(tradapter.ClassCTMSP, c.handle)
	return c, nil
}

// handle runs at the receive interrupt's split point.
func (c *Client) handle(rcv *tradapter.Received) []rtpc.Seg {
	out, ok := rcv.Frame.Payload.(*tradapter.Outgoing)
	if !ok {
		c.stats.BadPayload++
		rcv.Release()
		return nil
	}
	pkt, ok := out.Chain.Tag.(ctmsp.Packet)
	if !ok {
		c.stats.BadPayload++
		rcv.Release()
		return nil
	}
	frag, ok := pkt.Payload.(fragment)
	if !ok {
		c.stats.BadPayload++
		rcv.Release()
		return nil
	}

	m := c.k.Machine
	segs := m.CopySegs(rcv.Size, rcv.Buffer.Kind, rtpc.SystemMemory)
	segs = append(segs, rtpc.Mark(rcv.Release))
	segs = append(segs, rtpc.Mark(func() {
		ev := c.recv.Accept(pkt.Header, c.k.Sched().Now())
		switch ev {
		case ctmsp.Duplicate:
			c.stats.Duplicates++
			return
		case ctmsp.Gap:
			// Loss already counted by the receiver; the fragment still
			// plays (a skip, not a stall).
		}
		c.stats.Packets++
		p := c.players[frag.Track]
		if p == nil {
			c.stats.BadPayload++
			return
		}
		c.received[frag.Track] = append(c.received[frag.Track], frag.Data...)
		p.deliver(len(frag.Data), c.k.Sched().Now())
	}))
	return segs
}

// Stats returns client-level accounting (loss from the CTMSP receiver).
func (c *Client) Stats() ClientStats {
	s := c.stats
	s.Lost = c.recv.Stats().Lost
	return s
}

// TrackBytes returns everything received for a track, in arrival order.
func (c *Client) TrackBytes(id uint8) []byte { return c.received[id] }

// Finish returns per-track stats sorted by track id. Underruns are only
// counted between deliveries: running the buffer dry after the last
// chunk is the stream ending, not a glitch.
func (c *Client) Finish(t sim.Time) []TrackStats {
	var out []TrackStats
	for id := 0; id < 256; id++ {
		p, ok := c.players[uint8(id)]
		if !ok {
			continue
		}
		// Final drain without starvation accounting.
		if p.started && t > p.lastT {
			p.played += int64(p.buffer)
			p.buffer = 0
			p.lastT = t
		}
		out = append(out, TrackStats{
			Track:          uint8(id),
			Kind:           c.kinds[uint8(id)],
			BytesReceived:  len(c.received[uint8(id)]),
			Glitches:       p.glitches,
			StarvedTime:    p.starvedTime,
			MaxBufferBytes: p.maxBuffer,
		})
	}
	return out
}
