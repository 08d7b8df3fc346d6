package core

import (
	"repro/internal/ctmsp"
	"repro/internal/inet"
	"repro/internal/kernel"
	"repro/internal/measure"
	"repro/internal/ring"
	"repro/internal/rtpc"
	"repro/internal/sim"
	"repro/internal/tradapter"
	"repro/internal/vca"
	"repro/internal/workload"
)

// populationStations is how many other machines sit on the campus ring
// (the paper's ring had ~70); they contribute repeat latency even when
// silent.
const populationStations = 64

// tapCaptureLimit bounds the TAP monitor's capture buffer for long runs.
const tapCaptureLimit = 1 << 18

// Run executes the scenario described by cfg and returns its results.
// Simulated-time accounting happens inside sim itself (every scheduler
// flushes into sim.TotalSimulated when a run returns), so Run needs no
// bookkeeping here and mini-sims like the session layer's are counted too.
func Run(cfg Config) (*Results, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Protocol == ProtocolStockUnix {
		return runStock(cfg)
	}
	return runCTMSP(cfg)
}

// RunWithTAP runs the scenario and also returns the live TAP monitor so
// callers can inspect the raw frame capture.
func RunWithTAP(cfg Config) (*Results, *measure.TAP, error) {
	r, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return r, r.TapMonitor, nil
}

// env is the common scenario substrate.
type env struct {
	cfg   Config
	sched *sim.Scheduler
	rng   *sim.RNG
	ring  *ring.Ring
	tap   *measure.TAP

	txK, rxK     *kernel.Kernel
	txDrv, rxDrv *tradapter.Driver

	truth *measure.LogicAnalyzer
	rec   measure.Recorder
	pcat  *measure.PCAT

	stacks map[*kernel.Kernel]*inet.Stack
	gens   []interface{ Stop() }
}

// stack returns the machine's IP stack, creating it on first use so the
// relay path and the background generators share one instance.
func (e *env) stack(k *kernel.Kernel, drv *tradapter.Driver) *inet.Stack {
	if e.stacks == nil {
		e.stacks = make(map[*kernel.Kernel]*inet.Stack)
	}
	if s, ok := e.stacks[k]; ok {
		return s
	}
	s := inet.NewStack(k, drv, inet.DefaultCosts())
	e.stacks[k] = s
	return s
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

	mkHost := func(name string, trCfg tradapter.Config) (*kernel.Kernel, *tradapter.Driver) {
		m := rtpc.NewMachine(e.sched, name, rtpc.DefaultCostModel(), cfg.Seed)
		k := kernel.New(m)
		st := e.ring.Attach(name)
		drv := tradapter.New(k, st, trCfg, tradapter.DefaultTiming())
		k.Register(drv)
		return k, drv
	}
	e.txK, e.txDrv = mkHost("tx", trCfg)
	startKernelActivity(e.txK, e.rng.Fork("kern-tx"))
	// The receiver keeps its fixed DMA buffers in system memory (the
	// paper only moved the transmitter's; the toggle list is about the
	// transmitter).
	rxTrCfg := trCfg
	rxTrCfg.DMABufferKind = rtpc.SystemMemory
	e.rxK, e.rxDrv = mkHost("rx", rxTrCfg)
	startKernelActivity(e.rxK, e.rng.Fork("kern-rx"))

	// Populate the campus ring.
	for i := 0; i < populationStations; i++ {
		e.ring.Attach("pop")
	}

	e.tap = measure.NewTAP(e.ring, tapCaptureLimit)

	// Instruments: the logic analyzer always watches (ground truth);
	// the configured tool is what "the paper" reads.
	e.truth = measure.NewLogicAnalyzer(e.sched)
	switch cfg.Tool {
	case ToolPCAT:
		e.pcat = measure.NewPCAT(e.sched, cfg.Seed)
		e.pcat.Wire(measure.P1VCAIRQ, 0)
		e.pcat.Wire(measure.P2HandlerEntry, 1)
		e.pcat.Wire(measure.P3PreTransmit, 2)
		e.pcat.Wire(measure.P4RxClassified, 3)
		e.rec = e.pcat
	case ToolPseudoDev:
		e.rec = measure.NewPseudoDev(e.txK)
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

// startProtectedActivity schedules recurring kernel work done at splimp:
// network-level interrupts wait for the whole block, higher levels (the
// VCA) do not. mean is the exponential interarrival; each block's
// duration is uniform in [durLo, durHi].
func startProtectedActivity(k *kernel.Kernel, rng *sim.RNG, mean, durLo, durHi sim.Time) {
	cpu := k.CPU()
	var arm func()
	arm = func() {
		k.Sched().After(rng.Exp(mean), func() {
			dur := rng.Uniform(durLo, durHi)
			var saved int
			segs := []rtpc.Seg{
				rtpc.Mark(func() { saved = cpu.Spl(kernel.LevelNet) }),
			}
			for dur > 0 {
				c := 400 * sim.Microsecond
				if dur < c {
					c = dur
				}
				dur -= c
				segs = append(segs, rtpc.Do(c))
			}
			segs = append(segs, rtpc.Mark(func() { cpu.SplX(saved) }))
			cpu.Submit(kernel.LevelSoftNet, segs, nil)
			arm()
		})
	}
	arm()
}

// startPhaseLockedScan runs a fixed-duration splnet-protected scan at an
// exact period, starting at the given offset into the run.
func startPhaseLockedScan(k *kernel.Kernel, period, offset, dur sim.Time) {
	cpu := k.CPU()
	run := func() {
		var saved int
		segs := []rtpc.Seg{
			rtpc.Mark(func() { saved = cpu.Spl(kernel.LevelNet) }),
		}
		left := dur
		for left > 0 {
			c := 400 * sim.Microsecond
			if left < c {
				c = left
			}
			left -= c
			segs = append(segs, rtpc.Do(c))
		}
		segs = append(segs, rtpc.Mark(func() { cpu.SplX(saved) }))
		cpu.Submit(kernel.LevelSoftNet, segs, nil)
	}
	k.Sched().After(offset, func() {
		run()
		k.Sched().Every(period, run)
	})
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
	e.gens = append(e.gens, workload.NewMACGen(e.ring, mon, macUtil, e.rng))

	if cfg.PublicNetwork && cfg.NetworkLoad != LoadNone {
		// Third-party keep-alive chatter (AFS servers, other clients).
		c1 := e.ring.Attach("afs-server")
		c2 := e.ring.Attach("afs-client")
		mean := 60 * sim.Millisecond
		if cfg.NetworkLoad == LoadHeavy {
			mean = 20 * sim.Millisecond
		}
		e.gens = append(e.gens, workload.NewChatterGen(e.ring, c1, c2, 60, 300, mean, e.rng.Fork("chat-1")))
		e.gens = append(e.gens, workload.NewChatterGen(e.ring, c2, c1, 60, 300, mean*2, e.rng.Fork("chat-2")))

		// Compiles and kernel copies between third parties: 1522-byte
		// bursts that load the ring but not the machines under test.
		f1 := e.ring.Attach("build-host")
		f2 := e.ring.Attach("file-server")
		burstMean := 400 * sim.Millisecond
		if cfg.NetworkLoad == LoadHeavy {
			burstMean = 120 * sim.Millisecond
		}
		e.gens = append(e.gens, workload.NewFileTransferGen(e.ring, f1, f2, burstMean, 3200*sim.Microsecond, e.rng.Fork("ft-3rd")))
	}

	if cfg.Multiprocessing {
		// The machines under test also run AFS clients and the test
		// rig's own control-socket connection (§5.3 calls the socket
		// traffic "an artifact of the test set up" and blames it for
		// part of Figure 5-2's second peak).
		control := e.ring.Attach("control")
		ctlM := rtpc.NewMachine(e.sched, "control", rtpc.DefaultCostModel(), cfg.Seed)
		ctlK := kernel.New(ctlM)
		ctlDrv := tradapter.New(ctlK, control, tradapter.StockConfig(), tradapter.DefaultTiming())
		ctlK.Register(ctlDrv)
		inet.NewStack(ctlK, ctlDrv, inet.DefaultCosts())

		txStack := e.stack(e.txK, e.txDrv)
		rxStack := e.stack(e.rxK, e.rxDrv)
		// Socket keep-alives and AFS keep-alives from the machines under
		// test: this traffic shares the transmitter's driver queue with
		// the CTMSP stream.
		e.gens = append(e.gens,
			workload.NewKeepAliveGen(e.sched, txStack, control.Addr(), 60, 300, 400*sim.Millisecond, e.rng.Fork("tx-ka")),
			workload.NewKeepAliveGen(e.sched, rxStack, control.Addr(), 60, 300, 400*sim.Millisecond, e.rng.Fork("rx-ka")),
		)
		// Competing processes ("multiprocessing mode but not heavily
		// loaded").
		e.txK.NewProc("bg-tx").BackgroundLoad(10*sim.Millisecond, 0.20)
		e.rxK.NewProc("bg-rx").BackgroundLoad(10*sim.Millisecond, 0.20)

		// AFS fetches INTO the machines under test: incoming 1522-byte
		// bursts whose receive processing shares the network interrupt
		// level with the CTMSP stream. This reception/transmission
		// interaction is what §5.3 blames for part of Figure 5-2's
		// structure and Figure 5-4's 11–15 ms band.
		fsrv := e.ring.Attach("afs-fileserver")
		toTx := workload.NewFileTransferGen(e.ring, fsrv, e.txDrv.Station(), 700*sim.Millisecond, 5500*sim.Microsecond, e.rng.Fork("ft-to-tx"))
		toTx.SetBurst(30*sim.Millisecond, 250*sim.Millisecond, 1.2)
		toRx := workload.NewFileTransferGen(e.ring, fsrv, e.rxDrv.Station(), 1500*sim.Millisecond, 6400*sim.Microsecond, e.rng.Fork("ft-to-rx"))
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
		startPhaseLockedScan(e.txK,
			72*sim.Millisecond, 10250*sim.Microsecond, 8650*sim.Microsecond)
		startProtectedActivity(e.txK, e.rng.Fork("cachemgr-tx"),
			40*sim.Millisecond, 2*sim.Millisecond, 6*sim.Millisecond)
		startProtectedActivity(e.rxK, e.rng.Fork("cachemgr-rx"),
			700*sim.Millisecond, 2*sim.Millisecond, 6*sim.Millisecond)
	}

	if cfg.Insertions {
		// ~20/day ⇒ mean 72 min between insertions.
		e.gens = append(e.gens, workload.NewInsertionGen(e.ring, 46*sim.Minute, e.rng))
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

// runCTMSP executes the prototype path.
func runCTMSP(cfg Config) (*Results, error) {
	e := buildEnv(cfg)

	conn, err := ctmsp.Dial(e.txK, e.txDrv, e.rxDrv.Station().Addr(), 1)
	if err != nil {
		return nil, err
	}

	dev := vca.NewDevice(e.txK)
	txCfg := vca.DefaultTxConfig()
	txCfg.DataBytes = cfg.PacketBytes - ctmsp.HeaderSize
	txCfg.CopyHeaderOnly = cfg.TxCopyHeaderOnly
	txCfg.CopyVCAToMbufs = cfg.TxCopyVCAToMbufs
	txDrv, err := vca.NewTxDriver(e.txK, dev, conn, txCfg)
	if err != nil {
		return nil, err
	}

	recv := &ctmsp.Receiver{}
	rxCfg := vca.RxConfig{
		CopyToMbufs:  cfg.RxCopyToMbufs,
		CopyToDevice: cfg.RxCopyToVCA,
		ExamineCost:  40 * sim.Microsecond,
	}
	rxDrv := vca.NewRxDriver(e.rxK, e.rxDrv, recv, rxCfg)

	streamBytesPerSec := float64(cfg.PacketBytes-ctmsp.HeaderSize) / cfg.Interval.Seconds()
	playout := NewPlayout(streamBytesPerSec, cfg.PlayoutPrebuffer)

	// Probe wiring.
	dev.OnIRQ = func(tick uint64, _ sim.Time) { e.record(measure.P1VCAIRQ, uint32(tick)) }
	txDrv.OnHandlerEntry = func(tick uint64, _ sim.Time) { e.record(measure.P2HandlerEntry, uint32(tick)) }
	txDrv.OnPreTransmit = func(num uint32, _ sim.Time) { e.record(measure.P3PreTransmit, num) }
	rxDrv.OnClassified = func(h ctmsp.Header, _ sim.Time) { e.record(measure.P4RxClassified, h.PacketNum) }
	rxDrv.OnDelivered = func(h ctmsp.Header, at sim.Time, ev ctmsp.Event) {
		if ev == ctmsp.InOrder || ev == ctmsp.Gap {
			playout.Deliver(int(h.Length)-ctmsp.HeaderSize, at)
		}
	}

	// Pointer-transfer extension (§2): patch packets after build.
	if cfg.PointerTransfer {
		txDrv.PatchOutgoing = func(p *tradapter.Outgoing) { p.NoCopy = true }
	}

	e.addBackground()
	dev.Start()
	e.sched.RunUntil(cfg.Duration)
	dev.Stop()
	e.stopGens()

	r := &Results{
		Config:     cfg,
		Elapsed:    cfg.Duration,
		Hists:      measure.BuildHistograms(e.rec, cfg.HistogramBinWidth),
		Truth:      measure.BuildHistograms(e.truth, cfg.HistogramBinWidth),
		Sent:       txDrv.Stats().PacketsSent,
		Delivered:  recv.Stats().InOrder + recv.Stats().Gaps,
		RxStats:    recv.Stats(),
		Playout:    playout.Finish(cfg.Duration),
		Ring:       e.ring.Counters(),
		TAP:        e.tap.Stats(),
		TapMonitor: e.tap,
		TxDriver:   e.txDrv.Stats(),
		TxCPUUtil:  float64(e.txK.CPU().Stats().BusyTime) / float64(cfg.Duration),
		RxCPUUtil:  float64(e.rxK.CPU().Stats().BusyTime) / float64(cfg.Duration),
		Copies:     CopiesFor(cfg),
	}
	return r, nil
}
