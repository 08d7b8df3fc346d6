package core

import (
	"repro/internal/ctmsp"
	"repro/internal/inet"
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/tradapter"
	"repro/internal/vca"
	"repro/internal/workload"
)

// tapCaptureLimit bounds the TAP monitor's capture buffer for long runs.
const tapCaptureLimit = 1 << 18

// Run executes the scenario described by cfg and returns its results.
// Simulated-time accounting happens inside sim itself (every scheduler
// flushes into sim.TotalSimulated when a run returns), so Run needs no
// bookkeeping here and mini-sims like the session layer's are counted too.
func Run(cfg Config) (*Results, error) {
	r, _, err := run(cfg, false)
	return r, err
}

// RunWithTAP runs the scenario with the TAP ring monitor attached and
// also returns its raw frame capture. The monitor is a passive observer:
// the results are exactly Run's.
func RunWithTAP(cfg Config) (*Results, *measure.TAP, error) {
	return run(cfg, true)
}

func run(cfg Config, withTAP bool) (*Results, *measure.TAP, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	e := buildEnv(cfg)
	var tap *measure.TAP
	if withTAP {
		tap = measure.NewTAP(e.ring, tapCaptureLimit)
	}
	scenario := runCTMSP
	if cfg.Protocol == ProtocolStockUnix {
		scenario = runStock
	}
	return scenario(e), tap, nil
}

// env is the common scenario substrate.
type env struct {
	cfg   Config
	sched *sim.Scheduler
	rng   *sim.RNG
	ring  *ring.Ring

	txDrv, rxDrv *tradapter.Driver

	// truth is the logic analyzer and rec the configured tool (truth
	// itself when that is the analyzer); each feeds its own analysis.
	truth          *measure.LogicAnalyzer
	rec            measure.Recorder
	pcat           *measure.PCAT
	truthAn, recAn *measure.Analysis

	txStack, rxStack *inet.Stack
	gens             []interface{ Stop() }
}

// stacks returns the two machines' IP stacks, building them (tx first)
// on first use so the relay path and the background generators share
// one instance each.
func (e *env) stacks() (tx, rx *inet.Stack) {
	if e.txStack == nil {
		e.txStack = inet.NewStack(e.txDrv)
		e.rxStack = inet.NewStack(e.rxDrv)
	}
	return e.txStack, e.rxStack
}

// buildEnv constructs the ring, the two machines under test and the
// measurement instruments.
func buildEnv(cfg Config) *env {
	e := &env{cfg: cfg, sched: sim.NewScheduler(), rng: sim.NewRNG(cfg.Seed)}

	ringCfg := ring.DefaultConfig()
	ringCfg.Seed = cfg.Seed
	if cfg.RingBitRate > 0 {
		ringCfg.BitRate = cfg.RingBitRate
	}
	e.ring = ring.New(e.sched, ringCfg)

	trCfg := tradapter.DefaultConfig()
	if !cfg.TxIOChannelMemory {
		trCfg.DMABufferKind = rtpc.SystemMemory
	}
	trCfg.DriverPriority = cfg.DriverPriority
	if !cfg.RingPriority {
		trCfg.CTMSPRingPriority = 0
	}
	trCfg.PrecomputeHeader = cfg.PrecomputeHeader
	trCfg.PurgeInterrupt = cfg.PurgeInterrupt
	trCfg.UnprotectedQueueBug = cfg.DriverRaceBug

	e.txDrv = tradapter.NewHost(e.ring, "tx", cfg.Seed, trCfg)
	startKernelActivity(e.txDrv.Kernel(), e.rng.Fork("kern-tx"))
	// The receiver keeps its fixed DMA buffers in system memory (the
	// paper only moved the transmitter's; the toggle list is about the
	// transmitter).
	rxTrCfg := trCfg
	rxTrCfg.DMABufferKind = rtpc.SystemMemory
	e.rxDrv = tradapter.NewHost(e.ring, "rx", cfg.Seed, rxTrCfg)
	startKernelActivity(e.rxDrv.Kernel(), e.rng.Fork("kern-rx"))

	// Populate the campus ring.
	for i := 0; i < session.PopulationStations; i++ {
		e.ring.Attach("pop")
	}

	// Instruments: the logic analyzer always watches (ground truth);
	// the configured tool is what "the paper" reads.
	e.truthAn = measure.NewAnalysis(cfg.HistogramBinWidth)
	e.truth = measure.NewLogicAnalyzer(e.sched, e.truthAn)
	e.recAn = e.truthAn
	switch cfg.Tool {
	case ToolPCAT:
		e.recAn = measure.NewAnalysis(cfg.HistogramBinWidth)
		e.pcat = measure.NewPCAT(e.sched, cfg.Seed, e.recAn)
		e.rec = e.pcat
	case ToolPseudoDev:
		e.recAn = measure.NewAnalysis(cfg.HistogramBinWidth)
		e.rec = measure.NewPseudoDev(e.txDrv.Kernel(), e.recAn)
	default:
		e.rec = e.truth
	}
	return e
}

// startKernelActivity models the machine's own kernel life even in
// "stand alone" mode: the 100 Hz statistics clock, and occasional longer
// kernel work done inside splimp()-protected critical sections (buffer
// cache maintenance, timer queue scans). The protected sections delay
// network-level interrupt dispatch by up to a few milliseconds — the §5.3
// explanation for Test Case A's small right tail — without holding off
// the VCA's higher interrupt level.
func startKernelActivity(k *kernel.Kernel, rng *sim.RNG) {
	cpu := k.CPU()
	k.Sched().Every(10*sim.Millisecond, func() {
		cost := 70*sim.Microsecond + rng.Uniform(0, 40*sim.Microsecond)
		cpu.Submit(kernel.LevelClock, []rtpc.Seg{rtpc.Do(cost)}, nil)
	})
	startProtectedActivity(k, rng.Fork("housekeeping"),
		400*sim.Millisecond, 300*sim.Microsecond, 3600*sim.Microsecond)
}

// startProtectedActivity schedules recurring protected kernel work (see
// protectedWork). mean is the exponential interarrival; each block's
// duration is uniform in [durLo, durHi].
func startProtectedActivity(k *kernel.Kernel, rng *sim.RNG, mean, durLo, durHi sim.Time) {
	w := newProtectedWork(k)
	var fire func()
	fire = func() {
		w.submit(rng.Uniform(durLo, durHi))
		k.Sched().After(rng.Exp(mean), fire)
	}
	k.Sched().After(rng.Exp(mean), fire)
}

// startPhaseLockedScan runs a fixed-duration protected scan at an exact
// period, starting at the given offset into the run.
func startPhaseLockedScan(k *kernel.Kernel, period, offset, dur sim.Time) {
	w := newProtectedWork(k)
	run := func() { w.submit(dur) }
	k.Sched().After(offset, func() {
		run()
		k.Sched().Every(period, run)
	})
}

// protectedWork submits blocks of kernel work done at splnet:
// network-level interrupts wait for the whole block, higher levels (the
// VCA) do not. The work runs in 400 µs chunks.
//
// One activity's blocks share a program scratch and one saved spl level
// with prebuilt enter and exit actions. That is safe because a block's
// enter and exit can never straddle another block's: blocks are tasks at
// LevelSoftNet, a task preempts only a lower-level one, so same-level
// tasks never nest, and a block that has entered holds splnet, which
// keeps every other LevelSoftNet task from starting until its exit runs.
type protectedWork struct {
	cpu         *rtpc.CPU
	saved       int
	enter, exit func()
	prog        []rtpc.Seg // Submit copies it
}

func newProtectedWork(k *kernel.Kernel) *protectedWork {
	w := &protectedWork{cpu: k.CPU()}
	w.enter = func() { w.saved = w.cpu.Spl(kernel.LevelNet) }
	w.exit = func() { w.cpu.SplX(w.saved) }
	return w
}

// submit queues one protected block of dur.
func (w *protectedWork) submit(dur sim.Time) {
	const chunk = 400 * sim.Microsecond
	segs := append(w.prog[:0], rtpc.Mark(w.enter))
	for dur > 0 {
		c := min(dur, chunk)
		dur -= c
		segs = append(segs, rtpc.Do(c))
	}
	w.prog = append(segs, rtpc.Mark(w.exit))
	w.cpu.Submit(kernel.LevelSoftNet, w.prog, nil)
}

// record sends a probe event to both the configured tool and the truth
// recorder.
func (e *env) record(p measure.Point, num uint32) {
	e.truth.Record(p, num)
	if e.rec != e.truth {
		e.rec.Record(p, num)
	}
}

// addBackground wires up the §5.3 environment: MAC frames, keep-alive
// chatter, file transfer bursts, competing processes, the control-machine
// socket connection, and station insertions.
func (e *env) addBackground() {
	cfg := e.cfg
	macUtil := 0.002 // even a private ring carries monitor MAC frames
	if cfg.PublicNetwork {
		switch cfg.NetworkLoad {
		case LoadNormal:
			macUtil = 0.005
		case LoadHeavy:
			macUtil = 0.010
		}
	}
	mon := e.ring.Attach("monitor")
	e.gens = append(e.gens, workload.NewMACGen(e.ring, mon, macUtil, cfg.Seed))

	if cfg.PublicNetwork && cfg.NetworkLoad != LoadNone {
		// Third-party keep-alive chatter (AFS servers, other clients).
		c1 := e.ring.Attach("afs-server")
		c2 := e.ring.Attach("afs-client")
		mean := 60 * sim.Millisecond
		if cfg.NetworkLoad == LoadHeavy {
			mean = 20 * sim.Millisecond
		}
		e.gens = append(e.gens, workload.NewChatterGen(e.ring, c1, c2, 60, 300, mean, sim.ForkSeed(cfg.Seed, "chat-1")))
		e.gens = append(e.gens, workload.NewChatterGen(e.ring, c2, c1, 60, 300, mean*2, sim.ForkSeed(cfg.Seed, "chat-2")))

		// Compiles and kernel copies between third parties: 1522-byte
		// bursts that load the ring but not the machines under test.
		f1 := e.ring.Attach("build-host")
		f2 := e.ring.Attach("file-server")
		burstMean := 400 * sim.Millisecond
		if cfg.NetworkLoad == LoadHeavy {
			burstMean = 120 * sim.Millisecond
		}
		e.gens = append(e.gens, workload.NewFileTransferGen(e.ring, f1, f2, burstMean, 3200*sim.Microsecond, sim.ForkSeed(cfg.Seed, "ft-3rd")))
	}

	if cfg.Multiprocessing {
		// The machines under test also run AFS clients and the test
		// rig's own control-socket connection (§5.3 calls the socket
		// traffic "an artifact of the test set up" and blames it for
		// part of Figure 5-2's second peak).
		control := inet.NewStack(tradapter.NewHost(e.ring, "control", cfg.Seed, tradapter.StockConfig()))

		txStack, rxStack := e.stacks()
		txK, rxK := e.txDrv.Kernel(), e.rxDrv.Kernel()
		// Socket keep-alives and AFS keep-alives from the machines under
		// test: this traffic shares the transmitter's driver queue with
		// the CTMSP stream.
		e.gens = append(e.gens,
			workload.NewKeepAliveGen(e.sched, txStack, control.Addr(), 60, 300, 400*sim.Millisecond, sim.ForkSeed(cfg.Seed, "tx-ka")),
			workload.NewKeepAliveGen(e.sched, rxStack, control.Addr(), 60, 300, 400*sim.Millisecond, sim.ForkSeed(cfg.Seed, "rx-ka")),
		)
		// Competing processes ("multiprocessing mode but not heavily
		// loaded").
		txK.NewProc("bg-tx").BackgroundLoad(10*sim.Millisecond, 0.20)
		rxK.NewProc("bg-rx").BackgroundLoad(10*sim.Millisecond, 0.20)

		// AFS fetches INTO the machines under test: incoming 1522-byte
		// bursts whose receive processing shares the network interrupt
		// level with the CTMSP stream. This reception/transmission
		// interaction is what §5.3 blames for part of Figure 5-2's
		// structure and Figure 5-4's 11–15 ms band.
		fsrv := e.ring.Attach("afs-fileserver")
		toTx := workload.NewFileTransferGen(e.ring, fsrv, e.txDrv.Station(), 700*sim.Millisecond, 5500*sim.Microsecond, sim.ForkSeed(cfg.Seed, "ft-to-tx"))
		toTx.SetBurst(30*sim.Millisecond, 250*sim.Millisecond, 1.2)
		toRx := workload.NewFileTransferGen(e.ring, fsrv, e.rxDrv.Station(), 1500*sim.Millisecond, 6400*sim.Microsecond, sim.ForkSeed(cfg.Seed, "ft-to-rx"))
		toRx.SetBurst(30*sim.Millisecond, 250*sim.Millisecond, 1.2)
		e.gens = append(e.gens, toTx, toRx)

		// Timer-driven protocol scans (the pffasttimo/pfslowtimo class of
		// work) run at splnet every ten clock ticks — a period that is an
		// exact multiple of the VCA's 12 ms, so the scan phase-locks with
		// the stream and, when it lands across the driver-entry window,
		// delays the packet's copy by the scan's full ≈7 ms duration.
		// That quantized delay is Figure 5-2's second peak at ≈9400 µs
		// (= 12000 − 2600). Aperiodic protected work (the AFS cache
		// manager) produces the partial overlaps that fill the region in
		// between.
		// The scan starts 1.75 ms before every eighth VCA tick, so it
		// already holds splnet when the handler tries to start the copy.
		startPhaseLockedScan(txK,
			72*sim.Millisecond, 10250*sim.Microsecond, 8650*sim.Microsecond)
		startProtectedActivity(txK, e.rng.Fork("cachemgr-tx"),
			40*sim.Millisecond, 2*sim.Millisecond, 6*sim.Millisecond)
		startProtectedActivity(rxK, e.rng.Fork("cachemgr-rx"),
			700*sim.Millisecond, 2*sim.Millisecond, 6*sim.Millisecond)
	}

	if cfg.Insertions {
		// ~20/day ⇒ mean 72 min between insertions.
		e.gens = append(e.gens, workload.NewInsertionGen(e.ring, 46*sim.Minute, cfg.Seed))
	}
	if cfg.ForceInsertionAt > 0 {
		// Worst-case injection: arm at the requested time, then wait for
		// the moment a CTMSP frame is on the wire so the purge destroys
		// a stream packet (the paper's "if a packet is being transmitted
		// at the time of insertion, it is possible that the packet will
		// be lost").
		var poll func()
		poll = func() {
			if f := e.ring.Current(); f != nil {
				if out, ok := f.Payload.(*tradapter.Outgoing); ok && out.Class == tradapter.ClassCTMSP {
					e.ring.Insertion(10 + e.rng.Intn(4))
					return
				}
			}
			e.sched.After(200*sim.Microsecond, poll)
		}
		e.sched.At(cfg.ForceInsertionAt, poll)
	}
}

func (e *env) stopGens() {
	for _, g := range e.gens {
		g.Stop()
	}
	if e.pcat != nil {
		e.pcat.Stop()
	}
}

// finish runs the scenario to its end: it starts the background and the
// stream source, stops them at cfg.Duration, settles the histograms and
// fills the results both protocols share; the stream accounting is the
// caller's. When the logic analyzer is the configured tool, Hists is the
// truth set itself.
func (e *env) finish(dev *vca.Device) *Results {
	cfg := e.cfg
	e.addBackground()
	dev.Start()
	e.sched.RunUntil(cfg.Duration)
	dev.Stop()
	e.stopGens()

	return &Results{
		Config:    cfg,
		Elapsed:   cfg.Duration,
		Hists:     e.recAn.Finish(),
		Truth:     e.truthAn.Finish(),
		Ring:      e.ring.Counters(),
		TxDriver:  e.txDrv.Stats(),
		TxCPUUtil: float64(e.txDrv.Kernel().CPU().Stats().BusyTime) / float64(cfg.Duration),
		RxCPUUtil: float64(e.rxDrv.Kernel().CPU().Stats().BusyTime) / float64(cfg.Duration),
		Copies:    CopiesFor(cfg),
	}
}

// runCTMSP executes the prototype path: the session layer's stream
// between the two machines under test, with the §5.3 copy toggles and the
// P1–P4 probes.
func runCTMSP(e *env) *Results {
	cfg := e.cfg
	spec := session.StreamSpec{Name: cfg.Name, PacketBytes: cfg.PacketBytes, Interval: cfg.Interval}
	txCfg := vca.TxConfig{CopyHeaderOnly: cfg.TxCopyHeaderOnly, CopyVCAToMbufs: cfg.TxCopyVCAToMbufs}
	rxCfg := vca.RxConfig{CopyToMbufs: cfg.RxCopyToMbufs, CopyToDevice: cfg.RxCopyToVCA}
	st := session.Wire(0, spec, e.txDrv, e.rxDrv, e.rxDrv.Station().Addr(), txCfg, rxCfg, cfg.PlayoutPrebuffer, nil)
	st.Dev.OnIRQ = func(tick uint64, _ sim.Time) { e.record(measure.P1VCAIRQ, uint32(tick)) }
	st.Tx.OnHandlerEntry = func(tick uint64, _ sim.Time) { e.record(measure.P2HandlerEntry, uint32(tick)) }
	st.Tx.OnPreTransmit = func(num uint32, _ sim.Time) { e.record(measure.P3PreTransmit, num) }
	st.Rx.OnClassified = func(h ctmsp.Header, _ sim.Time) { e.record(measure.P4RxClassified, h.PacketNum) }
	// Pointer-transfer extension (§2): patch packets after build.
	if cfg.PointerTransfer {
		st.Tx.PatchOutgoing = func(p *tradapter.Outgoing) { p.NoCopy = true }
	}

	r := e.finish(st.Dev)
	out := st.Finish(cfg.Duration)
	r.Sent, r.Delivered, r.RxStats, r.Playout = out.Sent, out.Delivered, out.RxStats, out.Stats
	return r
}
