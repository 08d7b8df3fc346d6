// Package tradapter models the IBM Token Ring adapter and its UNIX device
// driver, with every §3/§4 modification as a configuration toggle:
//
//   - fixed DMA buffers in IO Channel Memory vs system memory (§4),
//   - a CTMSP packet-priority class inside the driver, above ARP and IP (§3),
//   - CTMSP frames sent at an elevated Token Ring access priority (§3),
//   - the Token Ring header precomputed once per connection vs recomputed
//     for every packet as IP requires (§3),
//   - the split point where received packets are classified so CTMSP
//     packets can be handled with "the shortest possible test" (§3, §5.2.3),
//   - the adapter's inability to interrupt on Ring Purge (§4), with the
//     hypothetical purge-interrupt mode available as an ablation,
//   - optional promiscuous MAC-frame reception, whose interrupt overhead
//     §4 quantifies and rejects.
package tradapter

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
)

// Class is the protocol class of a packet at the driver's split point.
//
//ctmsvet:enum
type Class uint8

const (
	// ClassIP is ordinary IP traffic.
	ClassIP Class = iota
	// ClassARP is address-resolution traffic.
	ClassARP
	// ClassCTMSP is continuous-time-media traffic, which the modified
	// driver queues ahead of everything else.
	ClassCTMSP
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassIP:
		return "IP"
	case ClassARP:
		return "ARP"
	case ClassCTMSP:
		return "CTMSP"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// RingOverhead is the Token Ring framing (SD, AC, FC, addresses, RI, FCS,
// ED, FS) added to every frame on the wire.
const RingOverhead = 21

// Config selects which of the paper's modifications are active.
type Config struct {
	// DMABufferKind places the fixed DMA buffers (§4's third change).
	DMABufferKind rtpc.MemoryKind
	// DriverPriority serves ClassCTMSP before ARP/IP in the output queue.
	DriverPriority bool
	// CTMSPRingPriority is the Token Ring access priority for CTMSP
	// frames (0 = same as everything else).
	CTMSPRingPriority int
	// PrecomputeHeader caches the ring header per connection; when false
	// every packet pays HeaderComputeCost, as IP's routing model forces.
	PrecomputeHeader bool
	// TxBuffers and RxBuffers are the number of fixed DMA buffers.
	TxBuffers, RxBuffers int
	// PurgeInterrupt enables the hypothetical adapter that interrupts on
	// Ring Purge, letting the driver retransmit the last packet (§5).
	PurgeInterrupt bool
	// UnprotectedQueueBug re-introduces the critical-section bug the
	// paper found with the TAP monitor (§5): the output queue is
	// manipulated without protection against the transmit-complete
	// interrupt, so under the right interleaving two queued packets
	// swap. "Once the critical sections of code were more carefully
	// protected, the problem of out of order packets completely
	// disappeared."
	UnprotectedQueueBug bool
	// PromiscuousMAC receives every MAC frame, costing an interrupt each.
	PromiscuousMAC bool
}

// DefaultConfig returns the fully modified driver of the prototype.
func DefaultConfig() Config {
	return Config{
		DMABufferKind:     rtpc.IOChannelMemory,
		DriverPriority:    true,
		CTMSPRingPriority: 4,
		PrecomputeHeader:  true,
		TxBuffers:         2,
		RxBuffers:         4,
	}
}

// StockConfig returns the unmodified driver: buffers in system memory, one
// FIFO output queue, no ring priority, per-packet header computation.
func StockConfig() Config {
	c := DefaultConfig()
	c.DMABufferKind = rtpc.SystemMemory
	c.DriverPriority = false
	c.CTMSPRingPriority = 0
	c.PrecomputeHeader = false
	return c
}

// The adapter hardware constants, calibrated in DESIGN.md §5 so a
// 2000-byte frame's minimum transmitter-to-receiver latency matches
// Figure 5-3's 10 740 µs.
const (
	// TxCardLatency is adapter firmware processing before transmission.
	TxCardLatency = 540 * sim.Microsecond
	// RxCardLatency is adapter firmware processing on reception.
	RxCardLatency = 3075 * sim.Microsecond
	// CardJitterMax is the per-frame firmware-latency variation added to
	// each of the card latencies (uniform in [0, max]).
	CardJitterMax = 120 * sim.Microsecond
	// IntrDispatchCost is the fixed cost at the top of the interrupt
	// handler (register save, status read).
	IntrDispatchCost = 60 * sim.Microsecond
	// ClassifyCost is the "shortest possible test" that recognizes a
	// CTMSP packet at the split point.
	ClassifyCost = 25 * sim.Microsecond
	// CompletionCost is the transmit-complete interrupt's work.
	CompletionCost = 80 * sim.Microsecond
	// MACFrameCost is the interrupt + header parse per MAC frame in
	// promiscuous mode (§4 calls this overhead unacceptable).
	MACFrameCost = 110 * sim.Microsecond
	// HeaderComputeCost is the CPU cost to build a Token Ring header.
	HeaderComputeCost = 120 * sim.Microsecond
)

// Outgoing is one packet handed to the driver for transmission.
type Outgoing struct {
	Chain *kernel.Chain
	Size  int // payload bytes (ring overhead added on the wire)
	Class Class
	Dst   ring.Addr
	// RoutedDst and RoutedRing name the final destination of a frame
	// that crosses a router: Dst addresses the router's ingress port,
	// RoutedDst the end station, and RoutedRing the 1-based
	// internetwork index of the ring RoutedDst lives on (each ring has
	// its own address space, so the station address alone cannot name
	// it). RoutedRing 0 means the frame is local: Dst is the end station
	// and a router receiving it drops it.
	RoutedDst  ring.Addr
	RoutedRing int
	// CopyBytes is how many bytes the CPU copies into the fixed DMA
	// buffer (§5.3's "header only" vs "header and data" toggle). Zero
	// means copy Size bytes.
	CopyBytes int
	// NoCopy is §2's pointer-transfer extension: the CPU passes the mbuf
	// chain's DMA-able pages to the adapter instead of copying. The
	// adapter then DMAs from system memory, which steals CPU cycles.
	NoCopy bool
	// Capture is what a ring monitor sees of the packet (≤96 bytes).
	Capture []byte
	// PreTransmit fires immediately after the packet is copied into the
	// fixed DMA buffer and immediately before the transmit command —
	// measurement point 3.
	PreTransmit func()
	// Done fires at the transmit-complete interrupt with the hardware
	// delivery status.
	Done func(ring.DeliveryStatus)

	queuedAt sim.Time
	// frame is the packet's ring frame, built in place at each transmit
	// command, so it lives exactly as long as the envelope.
	frame   ring.Frame
	recycle func(*Outgoing) // SetRecycle's hook, armed on frame at transmit
}

// SetRecycle arms envelope recycling for a pooled packet: fn runs once the
// envelope is provably dead — after the transmit-complete interrupt has
// run Done AND every receiving driver holding the frame has returned from
// its class handler. Receivers read the envelope (class, routed fields,
// chain tag) only synchronously inside their handler, and transmit-complete
// can fire before or after that read, so neither side alone may reuse it.
// The count is the envelope frame's own (ring.Frame.SetRecycle): the
// driver arms it at each transmit command and holds the transmit side's
// reference until transmit-complete, and a receiving driver holds its
// reference from wire arrival until its class handler returns or it drops
// the frame. The envelope's ring frame and the Capture bytes it points at
// die with it. Every release runs on the same ring's scheduler — no
// cross-shard access.
func (p *Outgoing) SetRecycle(fn func(*Outgoing)) { p.recycle = fn }

// recycleEnvelope is the ring-frame recycle hook of every pooled envelope:
// the frame's last reference is gone, so the envelope around it goes back
// to its owner.
func recycleEnvelope(f *ring.Frame) {
	p := f.Payload.(*Outgoing)
	fn := p.recycle
	p.recycle = nil
	fn(p)
}

// Received is a packet arriving at the driver's split point. Each fixed
// rx DMA buffer owns one Received, reused for every frame that lands in
// that buffer: once Release runs, the next frame may overwrite it, so a
// handler (and every segment action it returns) must not read the
// Received after releasing it — copy out what later actions need first.
type Received struct {
	Frame *ring.Frame
	Class Class
	Size  int
	// At is the classification instant (measurement point 4 for CTMSP).
	At sim.Time
	// Buffer is the fixed rx DMA buffer the packet sits in. The handler
	// must Release exactly once, after whatever copying its path does.
	Buffer    *rtpc.Buffer
	release   func()
	releaseFn func() // prebuilt r.Release, for ReleaseSeg
}

// Release frees the rx DMA buffer for the next frame.
func (r *Received) Release() {
	if r.release == nil {
		sim.Checkf(false, "rx buffer released twice")
	}
	f := r.release
	r.release = nil
	f()
}

// ReleaseSeg returns the zero-cost segment that releases the buffer: the
// allocation-free form of rtpc.Mark(r.Release), built once per rx buffer
// rather than once per frame.
func (r *Received) ReleaseSeg() rtpc.Seg { return rtpc.Mark(r.releaseFn) }

// Handler consumes a classified packet. It runs inside the receive
// interrupt and returns additional CPU segments (the configured copy path)
// to execute at interrupt level, right after classification. The driver
// copies the returned segments before running them, so a handler may
// build them into one scratch slice it reuses for every frame.
type Handler func(*Received) []rtpc.Seg

// Stats aggregates driver accounting.
type Stats struct {
	TxQueued     [numClasses]uint64
	TxDone       [numClasses]uint64
	TxDropped    [numClasses]uint64
	RxFrames     [numClasses]uint64
	RxNoBuffer   uint64
	RxMACFrames  uint64
	Retransmits  uint64
	HeaderComps  uint64
	QueueRaces   uint64
	MaxTxQueue   int
	MaxQueueWait sim.Time
}

// Driver is the Token Ring device driver plus adapter.
type Driver struct {
	k   *kernel.Kernel
	st  *ring.Station
	cfg Config
	// The adapter has independent transmit and receive DMA channels;
	// only the host bus (and the CPU, for system-memory targets) is
	// shared between them.
	txDMA, rxDMA *rtpc.DMA

	txBufs   []*rtpc.Buffer
	txQueues [2][]*Outgoing // 1 = CTMSP class, 0 = everything else
	// The transmit path is a two-stage pipeline: the CPU copies the next
	// packet into a free fixed DMA buffer while the previous packet is
	// still being DMAd/transmitted. Copies run one at a time (they are
	// CPU work and must finish in order); the wire stage is strictly
	// serialized in copy order, which is what preserves packet sequence.
	copyActive bool
	wireQ      sim.FIFO[wireItem]
	wireBusy   bool

	// Each stage serializes its work, so its per-frame state and
	// callbacks live here, built once on first use instead of once per
	// frame: the copy stage (copyJob, under copyActive) and the wire stage
	// (wireJob and wireStatus, under wireBusy).
	tx               *txStage
	copyJob, wireJob wireItem
	wireStatus       ring.DeliveryStatus
	prog             []rtpc.Seg // program scratch; Submit copies it

	rxSlots   []rxSlot // one per fixed rx DMA buffer
	rxPending int      // frames between wire arrival and rx buffer claim
	arrivals  sim.FreeList[rxArrival]

	handlers [numClasses]Handler
	stats    Stats
}

// txStage holds the transmit path's prebuilt callbacks.
type txStage struct {
	copyDone     func()                    // end of the copy program
	dmaDone      func()                    // transmit DMA out of the fixed buffer finished
	cardDone     func()                    // adapter firmware latency elapsed: frame goes on the ring
	transmitDone func(ring.DeliveryStatus) // the ring reports the outcome
	complete     [2]rtpc.Seg               // transmit-complete interrupt program
}

// rxSlot is one fixed rx DMA buffer with everything a frame needs from
// DMA completion to release: the frame, the interrupt program, the
// classify action and the Received handed to the class handler. A buffer
// holds one frame from claim to Release, so the slot does too.
type rxSlot struct {
	buf     *rtpc.Buffer
	f       *ring.Frame
	size    int
	rcv     Received
	dmaDone func()
	clear   func()      // buf.Clear, the Received's release
	intr    [2]rtpc.Seg // dispatch, then classify
}

// rxArrival carries one frame through the receive card latency, between
// wire arrival and rx buffer claim. Arrivals are pooled per driver.
type rxArrival struct {
	f    *ring.Frame
	size int
	fn   func()
}

// NewHost builds one host on r, the paper's RT/PC with a Token Ring
// adapter: a machine named name on the ring's scheduler, seeded from
// seed, under its own kernel, attached to r as station name. The driver
// is the host handle; Kernel and Station reach the rest. Only
// router.NewPair, one machine with two adapters, builds hosts with New.
func NewHost(r *ring.Ring, name string, seed int64, cfg Config) *Driver {
	k := kernel.New(rtpc.NewMachine(r.Scheduler(), name, seed))
	return New(k, r.Attach(name), cfg)
}

// New builds a driver for machine k attached to station st.
func New(k *kernel.Kernel, st *ring.Station, cfg Config) *Driver {
	if cfg.TxBuffers <= 0 {
		cfg.TxBuffers = 1
	}
	if cfg.RxBuffers <= 0 {
		cfg.RxBuffers = 2
	}
	d := &Driver{k: k, st: st, cfg: cfg}
	d.txDMA = k.Machine.NewDMA()
	d.rxDMA = k.Machine.NewDMA()
	d.txBufs = make([]*rtpc.Buffer, cfg.TxBuffers)
	for i := range d.txBufs {
		d.txBufs[i] = rtpc.NewBuffer(fmt.Sprintf("txdma%d", i), cfg.DMABufferKind, 4096)
	}
	d.rxSlots = make([]rxSlot, cfg.RxBuffers)
	for i := range d.rxSlots {
		d.rxSlots[i].buf = rtpc.NewBuffer(fmt.Sprintf("rxdma%d", i), cfg.DMABufferKind, 4096)
	}
	st.OnReceive(d.frameArrived)
	st.SetCopyGate(d.haveRxBuffer)
	st.SetPromiscuousMAC(cfg.PromiscuousMAC)
	return d
}

// ComputeHeader builds the Token Ring header for a destination once, for
// the life of a connection (§3's split-out header function; the paper's
// compute-header ioctl, a direct call at no simulated cost here).
func (d *Driver) ComputeHeader(dst ring.Addr) []byte {
	d.stats.HeaderComps++
	return BuildRingHeader(d.st.Addr(), dst)
}

// Station exposes the underlying ring station.
func (d *Driver) Station() *ring.Station { return d.st }

// Kernel is the machine the driver belongs to.
func (d *Driver) Kernel() *kernel.Kernel { return d.k }

// Config reports the active configuration.
func (d *Driver) Config() Config { return d.cfg }

// Stats returns a snapshot of driver accounting.
func (d *Driver) Stats() Stats { return d.stats }

// SetHandler installs the receive handler for a class.
func (d *Driver) SetHandler(c Class, h Handler) { d.handlers[c] = h }

// BuildRingHeader constructs the 14-byte MAC header plus LLC bytes that
// precede every packet. Only its length matters to the model, but the
// bytes are real so monitor captures decode.
func BuildRingHeader(src, dst ring.Addr) []byte {
	h := make([]byte, 22)
	h[0] = ring.EncodeAC(0, false)
	h[1] = ring.EncodeFC(ring.LLC)
	h[2], h[3] = byte(dst>>8), byte(dst)
	h[8], h[9] = byte(src>>8), byte(src)
	h[14] = 0xAA // SNAP
	h[15] = 0xAA
	return h
}

// ---- transmit path ----

// Output queues a packet for transmission. Safe to call from any level;
// the driver's own work runs at network interrupt level.
func (d *Driver) Output(p *Outgoing) {
	sim.Checkf(p.Size > 0, "zero-size packet")
	q := 0
	if d.cfg.DriverPriority && p.Class == ClassCTMSP {
		q = 1
	}
	p.queuedAt = d.k.Sched().Now()
	d.txQueues[q] = append(d.txQueues[q], p)
	d.stats.TxQueued[p.Class]++
	if depth := len(d.txQueues[0]) + len(d.txQueues[1]); depth > d.stats.MaxTxQueue {
		d.stats.MaxTxQueue = depth
	}
	d.pumpTx()
}

func (d *Driver) freeTxBuf() *rtpc.Buffer {
	for _, b := range d.txBufs {
		if !b.InUse() {
			return b
		}
	}
	return nil
}

func (d *Driver) nextTx() *Outgoing {
	for q := 1; q >= 0; q-- {
		if len(d.txQueues[q]) == 0 {
			continue
		}
		pick := 0
		// The historical critical-section bug: a transmit-complete
		// interrupt racing the enqueue leaves the list head stale, so a
		// backlogged queue occasionally serves its second entry first.
		if d.cfg.UnprotectedQueueBug && len(d.txQueues[q]) >= 2 && d.k.Machine.RNG().Bool(0.25) {
			d.stats.QueueRaces++
			pick = 1
		}
		p := d.txQueues[q][pick]
		d.txQueues[q] = append(d.txQueues[q][:pick], d.txQueues[q][pick+1:]...)
		return p
	}
	return nil
}

type wireItem struct {
	p   *Outgoing
	buf *rtpc.Buffer
}

// initTx builds the transmit stage's callbacks on the driver's first
// transmission, keeping drivers that never send (and topology set-up)
// free of them.
func (d *Driver) initTx() {
	d.tx = &txStage{
		copyDone:     d.copyDone,
		dmaDone:      d.txDMADone,
		cardDone:     d.cardDone,
		transmitDone: d.txComplete,
		complete: [2]rtpc.Seg{
			rtpc.Do(IntrDispatchCost),
			rtpc.Then(CompletionCost, d.completeTx),
		},
	}
}

// pumpTx starts the copy stage for the next queued packet if a fixed DMA
// buffer is free and no copy is in progress. The wire stage below is
// constrained to send one packet completely before starting another —
// that constraint is what preserves packet sequence (§3).
func (d *Driver) pumpTx() {
	if d.copyActive {
		return
	}
	buf := d.freeTxBuf()
	if buf == nil {
		return
	}
	p := d.nextTx()
	if p == nil {
		return
	}
	if d.tx == nil {
		d.initTx()
	}
	d.copyActive = true
	buf.Fill(p.Size) // reserve the buffer for this packet's copy
	if w := d.k.Sched().Now() - p.queuedAt; w > d.stats.MaxQueueWait {
		d.stats.MaxQueueWait = w
	}

	copyBytes := p.CopyBytes
	if copyBytes <= 0 {
		copyBytes = p.Size
	}
	m := d.k.Machine
	// Driver entry: queue manipulation, buffer setup, adapter register
	// programming.
	segs := append(d.prog[:0], rtpc.Do(120*sim.Microsecond))
	if !d.cfg.PrecomputeHeader {
		d.stats.HeaderComps++
		segs = append(segs, rtpc.Do(HeaderComputeCost))
	}
	if p.NoCopy {
		// Pointer transfer: only the descriptor list is built by the CPU.
		segs = append(segs, rtpc.Do(60*sim.Microsecond))
	} else {
		// The CPU copies the packet from mbufs (system memory) into the
		// fixed DMA buffer — 1 µs/byte when the buffer is in IO Channel
		// Memory. The copy loop is interruptible, so it is chunked.
		segs = m.CopySegs(segs, copyBytes, rtpc.SystemMemory, d.cfg.DMABufferKind)
	}
	segs = append(segs,
		rtpc.Do(m.Jitter(40*sim.Microsecond)),
		rtpc.Mark(d.tx.copyDone),
	)
	d.prog = segs
	d.copyJob = wireItem{p: p, buf: buf}
	d.k.CPU().Submit(kernel.LevelNet, segs, nil)
}

// copyDone ends the copy stage: the packet sits in its fixed DMA buffer,
// ready for the wire stage.
func (d *Driver) copyDone() {
	item := d.copyJob
	d.copyJob = wireItem{}
	if item.p.PreTransmit != nil {
		item.p.PreTransmit()
	}
	d.copyActive = false
	d.wireQ.Push(item)
	d.pumpWire()
	d.pumpTx() // another buffer may be free for the next copy
}

// pumpWire starts the adapter on the next fully-copied packet, strictly
// in copy order.
func (d *Driver) pumpWire() {
	if d.wireBusy || d.wireQ.Len() == 0 {
		return
	}
	d.wireBusy = true
	d.wireJob = d.wireQ.Pop()
	d.issueTransmit()
}

// issueTransmit gives the adapter the transmit command for the wire
// stage's packet: the card DMAs the frame out of the fixed buffer,
// processes it, and puts it on the ring.
func (d *Driver) issueTransmit() {
	p := d.wireJob.p
	src := d.wireJob.buf.Kind
	if p.NoCopy {
		src = rtpc.SystemMemory // the adapter DMAs straight from mbufs
	}
	d.txDMA.Transfer(p.Size, src, d.tx.dmaDone)
}

func (d *Driver) txDMADone() {
	card := TxCardLatency + d.k.Machine.Jitter(CardJitterMax)
	d.k.Sched().After(card, d.tx.cardDone)
}

func (d *Driver) cardDone() {
	p := d.wireJob.p
	prio := 0
	if p.Class == ClassCTMSP {
		prio = d.cfg.CTMSPRingPriority
	}
	p.frame = ring.DataFrame(d.st.Addr(), p.Dst, prio, p.Size+RingOverhead, p.Capture, p)
	if p.recycle != nil {
		p.frame.SetRecycle(recycleEnvelope)
		p.frame.Hold() // the transmit side's reference, dropped at completeTx
	}
	d.st.Transmit(&p.frame, d.tx.transmitDone)
}

// txComplete is the transmit-complete interrupt.
func (d *Driver) txComplete(s ring.DeliveryStatus) {
	d.wireStatus = s
	d.k.CPU().Submit(kernel.LevelNet, d.tx.complete[:], nil)
}

// completeTx is the transmit-complete interrupt's work.
func (d *Driver) completeTx() {
	p, buf, s := d.wireJob.p, d.wireJob.buf, d.wireStatus
	if s.PurgeLost && d.cfg.PurgeInterrupt {
		// Hypothetical adapter: retransmit the packet still sitting in
		// the fixed DMA buffer.
		d.stats.Retransmits++
		d.issueTransmit()
		return
	}
	// Real adapter: the driver never learns about a purge loss.
	buf.Clear()
	d.wireBusy = false
	d.wireJob, d.wireStatus = wireItem{}, ring.DeliveryStatus{}
	d.stats.TxDone[p.Class]++
	if p.Done != nil {
		p.Done(s)
	}
	p.frame.Release() // transmit side is finished with the envelope
	d.pumpWire()
	d.pumpTx()
}

// ---- receive path ----

func (d *Driver) haveRxBuffer() bool {
	free := 0
	for i := range d.rxSlots {
		if !d.rxSlots[i].buf.InUse() {
			free++
		}
	}
	if free > d.rxPending {
		return true
	}
	d.stats.RxNoBuffer++
	d.k.Sched().Trace().AddEvent(d.k.Sched().Now(), EvRxDrop, int64(d.rxPending), int64(free))
	return false
}

// claimRxSlot finds a free rx buffer, building its slot's callbacks the
// first time the buffer is used.
func (d *Driver) claimRxSlot() *rxSlot {
	for i := range d.rxSlots {
		sl := &d.rxSlots[i]
		if sl.buf.InUse() {
			continue
		}
		if sl.dmaDone == nil {
			d.initRxSlot(sl)
		}
		return sl
	}
	return nil
}

// initRxSlot builds a slot's receive interrupt program and callbacks.
func (d *Driver) initRxSlot(sl *rxSlot) {
	sl.dmaDone = func() { d.k.CPU().Submit(kernel.LevelNet, sl.intr[:], nil) }
	sl.intr = [2]rtpc.Seg{
		rtpc.Do(IntrDispatchCost),
		rtpc.Then(ClassifyCost, func() { d.classify(sl) }),
	}
	sl.clear = sl.buf.Clear
	sl.rcv.Buffer = sl.buf
	sl.rcv.releaseFn = sl.rcv.Release
}

// getArrival pops a free arrival record, building one (with its permanent
// callback) on the cold path only.
func (d *Driver) getArrival() *rxArrival {
	if a := d.arrivals.Get(); a != nil {
		return a
	}
	a := &rxArrival{}
	a.fn = func() {
		f, size := a.f, a.size
		a.f = nil
		d.arrivals.Put(a)
		d.claimRxBuf(f, size)
	}
	return a
}

// frameArrived runs when a frame addressed to this station completes on
// the wire: card firmware latency, DMA into a fixed rx buffer, then the
// receive interrupt. The arrival and then the rx slot keep the frame
// until classification, so the driver holds a reference on a pooled frame
// (ring.Frame.SetRecycle) from here until classify or the drop in
// claimRxBuf. MAC frames are read here and not kept.
func (d *Driver) frameArrived(f *ring.Frame, _ sim.Time) {
	if f.Kind == ring.MAC {
		d.macFrame(f)
		return
	}
	f.Hold()
	d.rxPending++
	a := d.getArrival()
	a.f, a.size = f, f.Size-RingOverhead
	card := RxCardLatency + d.k.Machine.Jitter(CardJitterMax)
	d.k.Sched().After(card, a.fn)
}

// claimRxBuf runs once the receive card latency has elapsed: the frame
// takes a free rx buffer and the adapter DMAs it in.
func (d *Driver) claimRxBuf(f *ring.Frame, size int) {
	sl := d.claimRxSlot()
	if sl == nil {
		// Race: buffers filled since the copy gate passed.
		d.rxPending--
		d.stats.RxNoBuffer++
		d.k.Sched().Trace().AddEvent(d.k.Sched().Now(), EvRxDrop, int64(d.rxPending), int64(size))
		f.Release()
		return
	}
	sl.buf.Fill(size)
	sl.f, sl.size = f, size
	d.rxPending--
	d.rxDMA.Transfer(size, sl.buf.Kind, sl.dmaDone)
}

// classify is the receive interrupt's split point: it classifies the
// packet and splices the class handler's copy path into the interrupt.
func (d *Driver) classify(sl *rxSlot) {
	f := sl.f
	class := classOf(f)
	d.stats.RxFrames[class]++
	rcv := &sl.rcv
	rcv.Frame, rcv.Class, rcv.Size = f, class, sl.size
	rcv.At = d.k.Sched().Now()
	rcv.release = sl.clear
	h := d.handlers[class]
	if h == nil {
		rcv.Release()
		f.Release()
		return
	}
	// Handlers read the frame and its envelope synchronously (routed
	// fields, chain tag, capture bytes) and keep only copied values in
	// the segments they return, so once the handler returns the receiver
	// never touches the frame again and drops its reference.
	segs := h(rcv)
	f.Release()
	d.k.CPU().Splice(segs)
}

// macFrame handles a MAC frame in promiscuous mode: pure interrupt
// overhead, which is the point of experiment E7.
func (d *Driver) macFrame(f *ring.Frame) {
	d.stats.RxMACFrames++
	segs := append(d.prog[:0],
		rtpc.Do(IntrDispatchCost),
		rtpc.Do(MACFrameCost),
	)
	if d.cfg.PurgeInterrupt && f.MAC == ring.MACRingPurge {
		segs = append(segs, rtpc.Mark(func() {
			// Purge recovery is handled in txComplete via the status
			// bit; nothing further here.
		}))
	}
	d.prog = segs
	d.k.CPU().Submit(kernel.LevelNet, segs, nil)
}

// classOf maps a frame to its driver class by inspecting the payload tag.
func classOf(f *ring.Frame) Class {
	if p, ok := f.Payload.(*Outgoing); ok {
		return p.Class
	}
	return ClassIP
}
