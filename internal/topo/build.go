package topo

import (
	"fmt"

	"repro/internal/ctmsp"
	"repro/internal/kernel"
	"repro/internal/playout"
	"repro/internal/ring"
	"repro/internal/router"
	"repro/internal/rtpc"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/tradapter"
	"repro/internal/vca"
	"repro/internal/workload"
)

// Network is a built internetwork, ready to Run exactly once. All
// machinery is constructed serially by Build — shard schedulers diverge
// only once Run starts stepping them — so the (scheduler, seq) event
// order on every shard is fixed before any worker exists.
type Network struct {
	spec    Spec
	window  sim.Time
	shards  []*shard
	links   []*link
	streams []*stream
	bursts  []*burst
	// routes is the all-pairs next-hop table compiled once during
	// validation; via[r][d] is the first hop's bridge station address on
	// ring r for frames bound to ring d.
	routes *routeTable
	via    [][]ring.Addr
	// adj[i] lists shard i's incident links as (peer, latency) pairs —
	// the per-shard lookahead recurrence the engine iterates (engine.go).
	adj [][]ringEdge
	// engStats is filled by Run and copied into Results by collect.
	engStats EngineStats
	ran      bool
}

// ringEdge is one incident link seen from a shard: the ring on the far
// end and the store-and-forward latency toward (and from) it.
type ringEdge struct {
	peer int
	lat  sim.Time
}

// shard is one ring's slice of the simulation: its own scheduler, the
// ring with population and background load, the per-ring admission
// controller, and the inbound cross-ring queues drained at window
// boundaries. Exactly one worker goroutine ever touches a shard.
//
//ctmsvet:shardowned
type shard struct {
	idx     int
	sched   *sim.Scheduler
	ring    *ring.Ring
	ctrl    *session.Controller
	gens    []interface{ Stop() }
	in      []*inbox   // inbound link directions terminating on this ring
	scratch []crossMsg // drain merge buffer, reused across windows
	// arrivals is the free list of pooled link-arrival events (one per
	// cross-ring frame in flight into this shard), so steady-state
	// draining allocates neither closures nor scheduler payloads.
	arrivals []*arrival
}

// link is one bridge: a Half on each ring plus the two directed inboxes.
type link struct {
	spec         LinkSpec
	halfA, halfB *router.Half
	ab, ba       *inbox // ab carries A→B traffic (drained by B's shard)
}

// stream is one CTMSP stream's live machinery plus its receive-side
// latency accounting (owned by the destination shard during the run).
type stream struct {
	idx   int
	spec  StreamSpec
	dec   session.Decision
	path  []int // rings along the route, source first
	dev   *vca.Device
	txDrv *vca.TxDriver
	recv  *ctmsp.Receiver
	play  *playout.Playout
	// End-to-end delivery delay versus the nominal capture schedule
	// (packet k is captured at (k+1)×Interval on the device's clock), so
	// no cross-shard send timestamp is needed.
	latSum sim.Time
	latMax sim.Time
	latN   uint64
}

// burst is one BurstSpec's source-side accounting.
type burst struct {
	spec      BurstSpec
	attempted uint64
	queued    uint64
	dropped   uint64 // source mbuf pool exhaustion
}

// Build validates the spec and constructs the whole internetwork:
// shards, bridges, routing tables, admission, streams, bursts and
// insertions. The returned Network runs once, at any worker count, with
// bit-identical results.
func Build(spec Spec) (*Network, error) {
	rt, err := spec.validateCompiled()
	if err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	if spec.Population != nil {
		// Full-slice expression: the census must not scribble on the
		// caller's Streams backing array.
		spec.Streams = append(spec.Streams[:len(spec.Streams):len(spec.Streams)],
			expandPopulation(spec, rt)...)
	}

	n := &Network{spec: spec, routes: rt}
	n.window = spec.Duration
	for _, l := range spec.Links {
		if l.Latency < n.window {
			n.window = l.Latency
		}
	}
	n.adj = make([][]ringEdge, spec.Rings)
	for _, l := range spec.Links {
		n.adj[l.A] = append(n.adj[l.A], ringEdge{peer: l.B, lat: l.Latency})
		n.adj[l.B] = append(n.adj[l.B], ringEdge{peer: l.A, lat: l.Latency})
	}

	n.buildShards()
	n.buildLinks()
	n.buildRoutes()
	for i, st := range spec.Streams {
		if err := n.buildStream(i, st); err != nil {
			return nil, err
		}
	}
	for i, b := range spec.Bursts {
		n.buildBurst(i, b)
	}
	for _, ins := range spec.Insertions {
		s := n.shards[ins.Ring]
		purges := ins.Purges
		if purges == 0 {
			purges = defaultInsertionPurges
		}
		rg := s.ring
		s.sched.At(ins.At, func() { rg.Insertion(purges) })
	}
	return n, nil
}

// buildShards gives each ring its own scheduler, population and
// background load, mirroring the session layer's single-ring setup.
func (n *Network) buildShards() {
	spec := n.spec
	for i := 0; i < spec.Rings; i++ {
		seed := mixSeed(spec.Seed, saltRing+uint64(i))
		sched := sim.NewScheduler()
		ringCfg := ring.DefaultConfig()
		ringCfg.Seed = seed
		ringCfg.BitRate = spec.RingBitRate
		r := ring.New(sched, ringCfg)
		for p := 0; p < spec.PopulationStations; p++ {
			r.Attach("pop")
		}
		s := &shard{idx: i, sched: sched, ring: r}
		backgroundBitRate := int64(spec.BackgroundUtil * float64(spec.RingBitRate))
		if spec.BackgroundUtil > 0 {
			rng := sim.NewRNG(seed)
			macUtil := spec.BackgroundUtil * 0.1
			if macUtil > 0.01 {
				macUtil = 0.01
			}
			mon := r.Attach("monitor")
			s.gens = append(s.gens, workload.NewMACGen(r, mon, macUtil, rng.Fork("bg-mac")))
			restUtil := spec.BackgroundUtil - macUtil
			if restUtil > 0 {
				src, dst := r.Attach("bg-src"), r.Attach("bg-dst")
				frameTime := sim.WireTime(1522, spec.RingBitRate)
				mean := sim.Scale(frameTime, 1/restUtil)
				s.gens = append(s.gens, workload.NewChatterGen(r, src, dst, 1522, 1522, mean, rng.Fork("bg-data")))
			}
		}
		s.ctrl = session.NewController(spec.RingBitRate, spec.UtilizationCap, backgroundBitRate)
		n.shards = append(n.shards, s)
	}
}

// buildLinks attaches a split-bridge Half per link endpoint and joins
// the pair with one inbox per direction. The Forward callback stamps the
// arrival time with the sender shard's clock — it always runs during
// that shard's event processing — plus the link's store-and-forward
// latency, which is what the engine's lookahead window is built on.
func (n *Network) buildLinks() {
	spec := n.spec
	dir := 0
	for li, ls := range spec.Links {
		a, b := n.shards[ls.A], n.shards[ls.B]
		halfA := router.NewHalf(a.sched, fmt.Sprintf("br%d-r%d", li, ls.A),
			a.ring, ls.A, spec.Rings, mixSeed(spec.Seed, saltHalf+uint64(li)*2))
		halfB := router.NewHalf(b.sched, fmt.Sprintf("br%d-r%d", li, ls.B),
			b.ring, ls.B, spec.Rings, mixSeed(spec.Seed, saltHalf+uint64(li)*2+1))
		lk := &link{spec: ls, halfA: halfA, halfB: halfB}
		lk.ab = newInbox(dir, halfB)
		dir++
		lk.ba = newInbox(dir, halfA)
		dir++
		wire := func(from *shard, box *inbox, lat sim.Time) func(router.Forwarded) {
			sched := from.sched
			return func(f router.Forwarded) { box.put(sched.Now()+lat, f) }
		}
		halfA.Forward = wire(a, lk.ab, ls.Latency)
		halfB.Forward = wire(b, lk.ba, ls.Latency)
		b.in = append(b.in, lk.ab)
		a.in = append(a.in, lk.ba)
		n.links = append(n.links, lk)
	}
}

// buildRoutes projects the compiled next-hop table onto the built
// bridges: via[r][d] is where a frame on ring r bound for ring d must be
// MAC-addressed — the first-hop bridge's station, looked up O(1) in the
// table Validate already compiled.
func (n *Network) buildRoutes() {
	spec := n.spec
	n.via = make([][]ring.Addr, spec.Rings)
	for r := range n.via {
		n.via[r] = make([]ring.Addr, spec.Rings)
		for d := 0; d < spec.Rings; d++ {
			li := n.routes.nextLink(r, d)
			if li < 0 {
				continue
			}
			if spec.Links[li].A == r {
				n.via[r][d] = n.links[li].halfA.Station().Addr()
			} else {
				n.via[r][d] = n.links[li].halfB.Station().Addr()
			}
		}
	}
	for li, ls := range spec.Links {
		for d := 0; d < spec.Rings; d++ {
			if d != ls.A && n.via[ls.A][d] != 0 {
				n.links[li].halfA.SetRoute(d, n.via[ls.A][d])
			}
			if d != ls.B && n.via[ls.B][d] != 0 {
				n.links[li].halfB.SetRoute(d, n.via[ls.B][d])
			}
		}
	}
}

// pathRings walks the compiled table from src to dst, source included.
func (n *Network) pathRings(src, dst int) []int {
	path := n.routes.path(src, dst)
	sim.Checkf(path != nil, "topo: no path %d→%d past validation", src, dst)
	return path
}

// buildStream admits one stream on every ring of its path — rollback on
// the first refusal, with the refusing hop named in the decision — and,
// when admitted, attaches the transmit machinery to the source shard and
// the receive machinery to the destination shard. Cross-ring packets are
// MAC-addressed to the first-hop bridge and carry their final (ring,
// station) in the Outgoing's routed fields; the CTMSP header rides the
// mbuf tag end to end, so the receive path is the session layer's
// unchanged.
func (n *Network) buildStream(i int, spec StreamSpec) error {
	offered := spec.OfferedBits()
	path := n.pathRings(spec.SrcRing, spec.DstRing)
	st := &stream{idx: i, spec: spec, path: path}
	n.streams = append(n.streams, st)

	st.dec = session.Decision{Admitted: true, ReservedBits: offered}
	var granted []int
	for _, r := range path {
		d := n.shards[r].ctrl.Admit(i, spec.Class, offered)
		if !d.Admitted {
			st.dec = session.Decision{Admitted: false,
				Reason: fmt.Sprintf("ring %d: %s", r, d.Reason)}
			for _, g := range granted {
				n.shards[g].ctrl.Release(i)
			}
			return nil
		}
		granted = append(granted, r)
	}
	for _, r := range path {
		n.shards[r].ring.ReserveBits(offered)
	}

	src, dst := n.shards[spec.SrcRing], n.shards[spec.DstRing]
	trCfg := tradapter.DefaultConfig()
	trCfg.CTMSPRingPriority = spec.Class.RingPriority()
	mkHost := func(s *shard, role string, salt uint64) (*kernel.Kernel, *tradapter.Driver) {
		name := fmt.Sprintf("%s-%s", spec.Name, role)
		m := rtpc.NewMachine(s.sched, name, rtpc.DefaultCostModel(),
			mixSeed(n.spec.Seed, saltStream+salt))
		k := kernel.New(m)
		stn := s.ring.Attach(name)
		drv := tradapter.New(k, stn, trCfg, tradapter.DefaultTiming())
		k.Register(drv)
		return k, drv
	}
	txK, txTR := mkHost(src, "tx", uint64(i)*2)
	rxK, rxTR := mkHost(dst, "rx", uint64(i)*2+1)

	crossRing := spec.SrcRing != spec.DstRing
	dialTo := rxTR.Station().Addr()
	if crossRing {
		dialTo = n.via[spec.SrcRing][spec.DstRing]
	}
	conn, err := ctmsp.Dial(txK, txTR, dialTo, uint8(i%250+1))
	if err != nil {
		return fmt.Errorf("topo: stream %d (%s): %w", i, spec.Name, err)
	}

	dev := vca.NewDevice(txK)
	dev.SetPeriod(spec.Interval)
	txCfg := vca.DefaultTxConfig()
	txCfg.DataBytes = spec.PacketBytes - ctmsp.HeaderSize
	txDrv, err := vca.NewTxDriver(txK, dev, conn, txCfg)
	if err != nil {
		return fmt.Errorf("topo: stream %d (%s): %w", i, spec.Name, err)
	}
	txDrv.MaxOutstanding = maxOutstanding
	if crossRing {
		finalDst := rxTR.Station().Addr()
		dstRing := spec.DstRing
		txDrv.PatchOutgoing = func(out *tradapter.Outgoing) {
			out.RoutedDst = finalDst
			out.RoutedRing = dstRing + 1
		}
	}

	recv := &ctmsp.Receiver{}
	rxDrv := vca.NewRxDriver(rxK, rxTR, recv, vca.DefaultRxConfigB())
	streamBytesPerSec := float64(spec.PacketBytes-ctmsp.HeaderSize) / spec.Interval.Seconds()
	play := playout.New(streamBytesPerSec, n.spec.PlayoutPrebuffer)
	interval := spec.Interval
	rxDrv.OnDelivered = func(h ctmsp.Header, at sim.Time, ev ctmsp.Event) {
		if ev != ctmsp.InOrder && ev != ctmsp.Gap {
			return
		}
		play.Deliver(int(h.Length)-ctmsp.HeaderSize, at)
		if lat := at - sim.Time(h.PacketNum+1)*interval; lat > 0 {
			st.latSum += lat
			st.latN++
			if lat > st.latMax {
				st.latMax = lat
			}
		}
	}

	st.dev, st.txDrv, st.recv, st.play = dev, txDrv, recv, play
	dev.Start()
	return nil
}

// buildBurst schedules a frame burst from a dedicated source host toward
// a handler-less sink host (the driver releases unclaimed frames), using
// the same routed addressing as streams. Bursts bigger than the source
// mbuf pool or the bridge egress queue exercise the drop paths.
func (n *Network) buildBurst(bi int, bs BurstSpec) {
	src, dst := n.shards[bs.SrcRing], n.shards[bs.DstRing]
	mk := func(s *shard, role string, salt uint64) (*kernel.Kernel, *tradapter.Driver) {
		name := fmt.Sprintf("burst%d-%s", bi, role)
		m := rtpc.NewMachine(s.sched, name, rtpc.DefaultCostModel(),
			mixSeed(n.spec.Seed, saltBurst+salt))
		k := kernel.New(m)
		stn := s.ring.Attach(name)
		return k, tradapter.New(k, stn, tradapter.DefaultConfig(), tradapter.DefaultTiming())
	}
	srcK, srcTR := mk(src, "src", uint64(bi)*2)
	_, sinkTR := mk(dst, "sink", uint64(bi)*2+1)
	sinkAddr := sinkTR.Station().Addr()
	crossRing := bs.SrcRing != bs.DstRing
	via := sinkAddr
	if crossRing {
		via = n.via[bs.SrcRing][bs.DstRing]
	}

	b := &burst{spec: bs}
	n.bursts = append(n.bursts, b)
	for j := 0; j < bs.Count; j++ {
		at := bs.At + sim.Time(j)*bs.Gap
		if at > n.spec.Duration {
			break
		}
		src.sched.At(at, func() {
			b.attempted++
			ch := srcK.Pool.AllocNoWait(bs.PacketBytes)
			if ch == nil {
				b.dropped++
				return
			}
			out := &tradapter.Outgoing{
				Chain: ch,
				Size:  bs.PacketBytes,
				Class: tradapter.ClassIP,
				Dst:   via,
			}
			if crossRing {
				out.RoutedDst = sinkAddr
				out.RoutedRing = bs.DstRing + 1
			}
			pool := srcK.Pool
			out.Done = func(ring.DeliveryStatus) { pool.Free(ch) }
			b.queued++
			srcTR.Output(out)
		})
	}
}

// Shards reports the number of shards (rings).
func (n *Network) Shards() int { return len(n.shards) }

// Window reports the engine's lookahead window: the minimum link
// latency, or the full duration for a linkless spec.
func (n *Network) Window() sim.Time { return n.window }

// Scheduler exposes shard i's scheduler — for tests that inject chaos
// (window-edge events, cancels) before Run. Touching it after Run starts
// would race with the owning worker.
func (n *Network) Scheduler(i int) *sim.Scheduler { return n.shards[i].sched }

// Ring exposes shard i's ring for the same pre-Run purpose.
func (n *Network) Ring(i int) *ring.Ring { return n.shards[i].ring }
