package session

import (
	"repro/internal/ctmsp"
	"repro/internal/playout"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/tradapter"
	"repro/internal/vca"
	"repro/internal/workload"
)

const (
	// DefaultInsertionPurges is the paper's "on the order of 10"
	// back-to-back purges per station insertion.
	DefaultInsertionPurges = 10
	// PopulationStations is how many other machines sit on a campus ring
	// (the paper's ring had ~70); they contribute repeat latency even when
	// silent. Every runner's ring carries the same population, so
	// per-station repeat latency is comparable across them.
	PopulationStations = 64
	// maxOutstanding bounds packets a stream may queue in its Token Ring
	// driver: past it the VCA handler drops at the device, which is how a
	// starved stream degrades instead of buffering unboundedly.
	maxOutstanding = 8
)

// Background is a ring's offered background load: the generators to stop
// when the run ends, and the bandwidth admission must leave for them.
type Background struct {
	gens []interface{ Stop() }
	// Bits is the offered background load.
	//
	//ctmsvet:unit bit/s
	Bits int64
}

// Stop halts the background generators.
func (b Background) Stop() {
	for _, g := range b.gens {
		g.Stop()
	}
}

// NewRing builds one Token Ring the way every stream runner sees it: the
// campus population of stations, plus backgroundUtil of the wire as
// background load — a sliver of MAC chatter and 1522-byte transfer frames
// making up the rest. The ring and its generators draw from seed alone.
func NewRing(sched *sim.Scheduler, seed, bitRate int64, backgroundUtil float64) (*ring.Ring, Background) {
	r := ring.New(sched, ring.Config{BitRate: bitRate, Seed: seed})
	for i := 0; i < PopulationStations; i++ {
		r.Attach("pop")
	}
	bg := Background{Bits: int64(backgroundUtil * float64(bitRate))}
	if backgroundUtil > 0 {
		macUtil := backgroundUtil * 0.1
		if macUtil > 0.01 {
			macUtil = 0.01
		}
		mon := r.Attach("monitor")
		bg.gens = append(bg.gens, workload.NewMACGen(r, mon, macUtil, sim.ForkSeed(seed, "bg-mac")))
		restUtil := backgroundUtil - macUtil
		if restUtil > 0 {
			src, dst := r.Attach("bg-src"), r.Attach("bg-dst")
			frameTime := sim.WireTime(1522, bitRate)
			mean := sim.Scale(frameTime, 1/restUtil)
			bg.gens = append(bg.gens, workload.NewChatterGen(r, src, dst, 1522, 1522, mean, sim.ForkSeed(seed, "bg-data")))
		}
	}
	return r, bg
}

// End is where one side of a stream runs: the ring its host machine
// lives on (and whose scheduler drives it), the ring's internetwork
// index, and the machine's seed.
type End struct {
	Ring    *ring.Ring
	RingIdx int
	Seed    int64
}

// Stream is one stream's machinery: the transmitting host's VCA device
// and drivers, and the receiving host's CTMSP receiver and playout
// buffer. Dev, Tx and Rx are exported so a caller can set their probe
// hooks, PatchOutgoing or MaxOutstanding before Start.
type Stream struct {
	Dev  *vca.Device
	Tx   *vca.TxDriver
	Rx   *vca.RxDriver
	recv *ctmsp.Receiver
	play *playout.Playout
}

// NewStream attaches one admitted stream: its own transmitter and receiver
// machines (the paper's RT/PC pair) and the stream Wire builds between
// them, with the default copy paths and at most maxOutstanding packets
// queued in the transmitter's driver. When the ends sit on different
// rings, packets are MAC-addressed to via — the first-hop bridge on the
// transmitter's ring — and carry their final (ring, station) in the
// Outgoing's routed fields. The stream does not tick until Start.
func NewStream(id int, spec StreamSpec, tx, rx End, via ring.Addr, prebuffer sim.Time, onDelay func(sim.Time)) *Stream {
	trCfg := tradapter.DefaultConfig()
	trCfg.CTMSPRingPriority = spec.Class.RingPriority()
	txTR := tradapter.NewHost(tx.Ring, spec.Name+"-tx", tx.Seed, trCfg)
	rxTR := tradapter.NewHost(rx.Ring, spec.Name+"-rx", rx.Seed, trCfg)

	crossRing := tx.RingIdx != rx.RingIdx
	dialTo := rxTR.Station().Addr()
	if crossRing {
		dialTo = via
	}
	s := Wire(id, spec, txTR, rxTR, dialTo, vca.DefaultTxConfig(), vca.DefaultRxConfigB(), prebuffer, onDelay)
	s.Tx.MaxOutstanding = maxOutstanding
	if crossRing {
		finalDst, routedRing := rxTR.Station().Addr(), rx.RingIdx+1
		s.Tx.PatchOutgoing = func(out *tradapter.Outgoing) {
			out.RoutedDst = finalDst
			out.RoutedRing = routedRing
		}
	}
	return s
}

// Wire builds one stream between two hosts that already exist: a CTMSP
// connection from txTR's machine to dialTo with a precomputed ring
// header, the VCA device interrupting every spec.Interval into the
// transmit driver, and the receive driver on rxTR feeding a receiver and
// a playout buffer. txCfg and rxCfg choose the copy paths; txCfg's
// DataBytes is set from spec.PacketBytes. onDelay, when non-nil, is
// called with each delivered packet's delay past (n+1)·Interval, packet
// n's capture time on the device's clock when the device starts at 0.
// The stream does not tick until Start.
func Wire(id int, spec StreamSpec, txTR, rxTR *tradapter.Driver, dialTo ring.Addr, txCfg vca.TxConfig, rxCfg vca.RxConfig, prebuffer sim.Time, onDelay func(sim.Time)) *Stream {
	// Connection ids are a uint8 namespace; population runs can exceed it,
	// and the id only disambiguates packets on the shared ring trace, so
	// wrapping is safe (identical to id+1 for the first 250 streams).
	conn := ctmsp.Dial(txTR, dialTo, uint8(id%250+1))

	dev := vca.NewDevice(txTR.Kernel())
	dev.SetPeriod(spec.Interval)
	txCfg.DataBytes = spec.PacketBytes - ctmsp.HeaderSize
	txDrv := vca.NewTxDriver(dev, txTR, conn, txCfg)

	recv := &ctmsp.Receiver{}
	rxDrv := vca.NewRxDriver(rxTR, recv, rxCfg)
	streamBytesPerSec := float64(txCfg.DataBytes) / spec.Interval.Seconds()
	play := playout.New(streamBytesPerSec, prebuffer)
	play.SetTrace(rxTR.Kernel().Sched().Trace())
	interval := spec.Interval
	rxDrv.OnDelivered = func(h ctmsp.Header, at sim.Time, ev ctmsp.Event) {
		if ev != ctmsp.InOrder && ev != ctmsp.Gap {
			return
		}
		play.Deliver(int(h.Length)-ctmsp.HeaderSize, at)
		if onDelay != nil {
			onDelay(at - sim.Time(h.PacketNum+1)*interval)
		}
	}
	return &Stream{Dev: dev, Tx: txDrv, Rx: rxDrv, recv: recv, play: play}
}

// Start begins the stream's capture interrupts, the first one period from
// now.
func (s *Stream) Start() { s.Dev.Start() }

// Stop halts the stream at its source.
func (s *Stream) Stop() { s.Dev.Stop() }

// Outcome is a stream's transport and playout accounting: the packets the
// transmitter sent, and the receiver's and the playout buffer's
// statistics. Delivered (playout's) counts the packets that reached
// playout, in order or after a gap: InOrder + Gaps.
type Outcome struct {
	Sent uint64
	ctmsp.RxStats
	playout.Stats
}

// DeliveredFraction reports Delivered/Sent (0 for streams that never ran).
func (o Outcome) DeliveredFraction() float64 {
	if o.Sent == 0 {
		return 0
	}
	return float64(o.Delivered) / float64(o.Sent)
}

// Finish closes the stream's playout at end and reads its accounting.
func (s *Stream) Finish(end sim.Time) Outcome {
	return Outcome{
		Sent:    s.Tx.Stats().PacketsSent,
		RxStats: s.recv.Stats(),
		Stats:   s.play.Finish(end),
	}
}
