package topo

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/router"
	"repro/internal/sim"
)

// crossMsg is one frame in flight between shards. egress and dir are
// fixed at Build time; deliverAt is the sender's clock plus the link
// latency, so within one inbox deliverAt is nondecreasing (the sender's
// clock is monotone and the latency constant).
type crossMsg struct {
	deliverAt sim.Time
	dir       int    // global link-direction index: merge tiebreak
	seq       uint64 // send order within the direction: final tiebreak
	egress    *router.Half
	frame     router.Forwarded
}

// inbox is the single-writer queue for one link direction. Only the
// source shard's worker appends (during its window) and only the
// destination shard's worker drains (at the next window boundary); the
// conservative window guarantees no append ever races with a drain that
// could take it — a message sent during window k+1 cannot be due before
// window k+2 (DESIGN.md §9). The mutex is what makes that hand-off
// visible to the race detector and orders the racing-but-ineligible
// appends against the drain's slice surgery.
type inbox struct {
	dir    int
	egress *router.Half

	mu   sync.Mutex
	msgs []crossMsg // guarded by mu
	// next is the next message's send seq, and so also the lifetime
	// count of messages put.
	next uint64 // guarded by mu
}

func newInbox(dir int, egress *router.Half) *inbox {
	return &inbox{dir: dir, egress: egress}
}

// put appends a message; called from the sender shard's worker.
//
//ctmsvet:crossing push single-writer enqueue: only the sending half's worker calls put, and deliverAt carries now+latency past the window floor
func (b *inbox) put(deliverAt sim.Time, f router.Forwarded) {
	b.mu.Lock()
	b.msgs = append(b.msgs, crossMsg{
		deliverAt: deliverAt,
		dir:       b.dir,
		seq:       b.next,
		egress:    b.egress,
		frame:     f,
	})
	b.next++
	b.mu.Unlock()
}

// drainDue appends every message with deliverAt ≤ bound to into and
// removes them from the queue. deliverAt is nondecreasing within an
// inbox, so the due messages are exactly a prefix.
//
//ctmsvet:crossing drain receiver-side dequeue: runs only in the barrier step between windows, when the sending half's window is sealed
func (b *inbox) drainDue(bound sim.Time, into []crossMsg) []crossMsg {
	b.mu.Lock()
	due := 0
	for due < len(b.msgs) && b.msgs[due].deliverAt <= bound {
		due++
	}
	if due > 0 {
		into = append(into, b.msgs[:due]...)
		rest := copy(b.msgs, b.msgs[due:])
		for i := rest; i < len(b.msgs); i++ {
			b.msgs[i] = crossMsg{}
		}
		b.msgs = b.msgs[:rest]
	}
	b.mu.Unlock()
	return into
}

// pendingDue reports whether a queued message is due by bound at the
// receiver. Only the round decision calls it, while every worker waits
// in the barrier, so no put or drain can race the head it reads.
//
//ctmsvet:crossing peek idle-skip peek: reads the sealed head under the mutex during the round decision, moves no messages
func (b *inbox) pendingDue(bound sim.Time) bool {
	b.mu.Lock()
	due := len(b.msgs) > 0 && b.msgs[0].deliverAt <= bound
	b.mu.Unlock()
	return due
}

// leftover reports messages still queued (in flight when the run ended).
//
//ctmsvet:crossing peek end-of-run accounting: reads a count after all workers have joined, moves no messages
func (b *inbox) leftover() int {
	b.mu.Lock()
	l := len(b.msgs)
	b.mu.Unlock()
	return l
}

// arrival is one pooled cross-ring delivery: the reusable payload of a
// "topo.link-arrive" scheduler event, with its injection closure built
// once so steady-state draining allocates neither closures nor payloads.
// The pool lives on the receiving shard and every transition — drain,
// fire, release — happens on that shard's worker.
//
//ctmsvet:shardowned
type arrival struct {
	owner  *shard
	egress *router.Half
	frame  router.Forwarded
	fn     func()
}

// getArrival pops a free arrival, building one (with its permanent
// injection closure) on the cold path only.
func (s *shard) getArrival() *arrival {
	if a := s.arrivals.Get(); a != nil {
		return a
	}
	a := &arrival{owner: s}
	a.fn = func() {
		a.egress.Inject(a.frame)
		a.owner.putArrival(a)
	}
	return a
}

// putArrival clears a fired arrival and returns it to the pool.
func (s *shard) putArrival(a *arrival) {
	a.egress = nil
	a.frame = router.Forwarded{}
	s.arrivals.Put(a)
}

// barrier is a reusable cyclic barrier: await blocks until all n workers
// arrive; the last arrival runs the action while the others wait, then
// releases the generation together. A round is a few hundred
// microseconds of work per worker, so a futex sleep and wake per round
// costs a visible share of it: an early arrival first polls the
// generation for a bounded number of iterations and parks on the
// condition variable only after that. The release bumps gen under mu
// and broadcasts, so a worker that gave up spinning and parked can never
// miss it.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	spin    int           // poll iterations before parking; 0 when oversubscribed
	action  func()        // run by each generation's last arrival, before the release
	arrived int           // guarded by mu
	gen     atomic.Uint64 // written under mu by the releasing arrival, polled without it
}

// barrierSpin bounds an early arrival's poll of the generation counter,
// and barrierYieldEvery is how often that poll calls runtime.Gosched,
// which lets the GC's and the runtime's own goroutines use a spinning
// worker's P. The bound is an iteration count, never a clock (the
// engine reads none). On a 2-core x86 VM the whole spin takes
// 0.25–0.5 ms, about one round of per-worker work in the E20 mesh, so a
// worker parks only when a round's wait is far longer than usual.
const (
	barrierSpin       = 1 << 15
	barrierYieldEvery = 16
)

// newBarrier spins only when every worker can hold a P of its own: with
// more workers than GOMAXPROCS a spinner would take the CPU from the
// very worker it waits for, so those runs park at once.
func newBarrier(n int, action func()) *barrier {
	b := &barrier{n: n, action: action}
	if n <= runtime.GOMAXPROCS(0) {
		b.spin = barrierSpin
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// await runs the action on the last arrival, after every other arrival
// of the generation has taken and released mu and before the generation
// moves, so no worker arrives or leaves while it runs: the action sees
// everything the workers wrote before they arrived, and every worker
// sees everything the action wrote once await returns. It runs outside
// mu, so a worker that stops spinning can park meanwhile.
func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen.Load()
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.mu.Unlock()
		b.action()
		b.mu.Lock()
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	for i := 1; i <= b.spin; i++ {
		if b.gen.Load() != gen {
			return
		}
		if i%barrierYieldEvery == 0 {
			runtime.Gosched()
		}
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// drainInboxes moves every cross-ring frame due by bound out of this
// shard's inboxes and schedules its injection at its arrival time. The
// merge order — (deliverAt, direction index, send seq) — is a total
// order on messages, so the scheduler sees identical (at, seq) insertions
// regardless of how many workers the run uses.
func (s *shard) drainInboxes(bound sim.Time) {
	due := s.scratch[:0]
	for _, box := range s.in {
		due = box.drainDue(bound, due)
	}
	if len(due) > 0 {
		// slices.SortFunc with a capture-free comparator: no interface
		// boxing, no closure — the merge stays allocation-free.
		slices.SortFunc(due, func(a, b crossMsg) int {
			switch {
			case a.deliverAt != b.deliverAt:
				return cmp.Compare(a.deliverAt, b.deliverAt)
			case a.dir != b.dir:
				return cmp.Compare(a.dir, b.dir)
			default:
				return cmp.Compare(a.seq, b.seq)
			}
		})
		for i := range due {
			m := &due[i]
			a := s.getArrival()
			a.egress = m.egress
			a.frame = m.frame
			s.sched.At(m.deliverAt, a.fn)
		}
	}
	s.scratch = due[:0]
}

// EngineStats is the engine's own accounting for one Run: how many
// barrier rounds executed, how many were proven empty and skipped
// analytically, the span that bounds parallel speedup, and how long
// workers sat in the barrier (wall-clock, measured only when a clock was
// injected via SetWallClock — the topo package itself never reads one,
// keeping the simulation deterministic). None of this is part of
// Fingerprint: two runs of the same Spec produce identical Rounds,
// RoundsSkipped and Span at any worker count, but stall and wall nanos
// measure the host, not the model.
type EngineStats struct {
	// Rounds is the number of lookahead rounds the workers executed.
	Rounds uint64
	// RoundsSkipped counts rounds proven event-free from published shard
	// statuses and inbox heads, stepped over inside the previous round's
	// barrier with no drain, run or barrier of their own.
	RoundsSkipped uint64
	// Span sums, over the executed rounds, the events fired by that
	// round's busiest shard: the run's critical path in events, since no
	// round ends before its largest shard does.
	Span uint64
	// BarrierStallNanos sums the wall time all workers spent in the
	// barrier: waiting for the round's last arrival, and that arrival's
	// round decision, which is all a serial run counts (0 when no wall
	// clock is set).
	BarrierStallNanos int64
	// WallNanos is the wall time of the whole worker phase.
	WallNanos int64
}

// StallFraction is the fraction of total worker wall time spent in the
// barrier, spinning or parked: the wait of the workers that finished a
// round before its busiest one, plus the hand-off itself. It measures
// the host; Ceiling is the worker-invariant number the per-link windows
// and idle skips exist to raise.
func (e EngineStats) StallFraction(workers int) float64 {
	if e.WallNanos <= 0 || workers <= 0 {
		return 0
	}
	return float64(e.BarrierStallNanos) / (float64(e.WallNanos) * float64(workers))
}

// Ceiling is the work/span bound on parallel speedup, events / Span: the
// speedup the window protocol would allow on unlimited cores with free
// barriers. events is the run's total (Results.Events). It is a pure
// function of the Spec, so it is the same at every worker count.
func (e EngineStats) Ceiling(events uint64) float64 {
	if e.Span == 0 {
		return 0
	}
	return float64(events) / float64(e.Span)
}

// wallClock, when set, supplies wall-clock nanos for EngineStats. The
// determinism tier bans time.Now in sim-critical packages, so the clock
// is injected by callers that live outside them (the bench/ module, in
// its traced runs); left nil, the engine runs clock-free and the stall
// columns read zero.
var wallClock func() int64

// SetWallClock injects the wall-clock source EngineStats uses. Call it
// before Run; the engine only reads it. Passing nil disables stall
// measurement again.
func SetWallClock(fn func() int64) { wallClock = fn }

func engineNow() int64 {
	if wallClock == nil {
		return 0
	}
	return wallClock()
}

// shardStatus is one shard's published scheduler state after a round:
// its earliest pending event, if any, and how many events it fired in
// the round. The owning worker writes it before the barrier; only the
// round decision reads it.
type shardStatus struct {
	at    sim.Time
	ok    bool
	fired uint64
}

// engineRun is the shared state of one Run's worker phase. Each worker
// writes only its own shards' status slots and its stall slot; every
// other field is written only by decide, which the barrier runs while
// all the workers wait, and read by the workers after it.
type engineRun struct {
	n      *Network
	status []shardStatus
	bound  []sim.Time // per-shard bound of the round to execute
	next   []sim.Time // decide's scratch for the recurrence
	stall  []int64    // per-worker barrier wait, wall nanos
	done   bool       // the final round has executed

	rounds, skipped, span uint64
}

// Run executes the network for the spec's duration and collects results.
// workers ≤ 0 means GOMAXPROCS; workers is clamped to the shard count.
// Every worker count runs the same loop — Run(1) with a one-party
// barrier is the serial oracle — and produces bit-identical Results:
// shards only interact through inboxes, drains happen at the same
// simulated times with the same merge order, the round decision is made
// once per round on sealed state, and the per-link conservative windows
// (every link latency ≥ the bridges' switch cost) guarantee a round's
// drains can never see a racing round's sends.
func (n *Network) Run(workers int) *Results {
	sim.Checkf(!n.ran, "topo: Network.Run is single-shot; Build a fresh network")
	n.ran = true
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(n.shards) {
		workers = len(n.shards)
	}

	// Shards publish process-wide metrics once at the end rather than
	// racing tiny per-window flushes thousands of times a simulated
	// second.
	for _, s := range n.shards {
		s.sched.DeferMetricsFlush(true)
	}

	eng := &engineRun{
		n:      n,
		status: make([]shardStatus, len(n.shards)),
		bound:  make([]sim.Time, len(n.shards)),
		next:   make([]sim.Time, len(n.shards)),
		stall:  make([]int64, workers),
		rounds: 1,
	}
	// The first round always executes (no statuses exist yet); its bounds
	// step the recurrence from b ≡ 0.
	n.stepBounds(eng.next, eng.bound)
	bar := newBarrier(workers, eng.decide)
	t0 := engineNow()
	// Worker 0 runs on the calling goroutine, which would otherwise only
	// sit in wg.Wait.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		//ctmsvet:allow shardowned this is the ownership transfer itself: Run hands each worker its disjoint shard slice once, before any window starts, and joins them all before touching shard state again
		go func(w int) {
			defer wg.Done()
			n.runWorker(w, workers, bar, eng)
		}(w)
	}
	n.runWorker(0, workers, bar, eng)
	wg.Wait()
	n.engStats = EngineStats{
		Rounds:        eng.rounds,
		RoundsSkipped: eng.skipped,
		Span:          eng.span,
		WallNanos:     engineNow() - t0,
	}
	for _, s := range eng.stall {
		n.engStats.BarrierStallNanos += s
	}

	for _, s := range n.shards {
		s.sched.FlushMetrics()
		s.bg.Stop()
	}
	return n.collect(workers)
}

// stepBounds advances the per-link lookahead recurrence one round:
// nb[i] = min(duration, min over shard i's incident links of
// (b[peer] + link latency)), with linkless shards jumping straight to
// the duration. The recurrence is a pure function of the topology; it is
// monotone (nb ≥ b pointwise, by induction from b ≡ 0) and grows every
// unfinished entry by at least the minimum link latency per round, so
// it reaches the duration in at most ceil(duration/minLatency)+1 rounds
// — and on a uniform-latency connected graph it reproduces the old
// global grid k·window exactly, which is what keeps the E18 fingerprints
// byte-identical.
func (n *Network) stepBounds(b, nb []sim.Time) {
	d := n.spec.Duration
	for i := range nb {
		m := d
		for _, e := range n.adj[i] {
			if v := b[e.peer] + e.lat; v < m {
				m = v
			}
		}
		nb[i] = m
	}
}

// decide closes the round the workers just executed and sets up the
// next. It adds the round's busiest shard to the span and ends the run
// after the final round (every bound at the duration). Otherwise it
// steps the recurrence past every provably empty round — one where no
// shard holds an event and no inbox a message due by its bound, so
// every RunUntil would only move a clock — to the next round that must
// execute; the final round always executes, so every clock ends exactly
// at the duration. The barrier runs decide on the round's last arrival
// while every other worker waits, so the statuses and inbox heads it
// reads are sealed, and all workers follow its one verdict.
func (e *engineRun) decide() {
	var most uint64
	for _, st := range e.status {
		most = max(most, st.fired)
	}
	e.span += most
	d := e.n.spec.Duration
	if slices.Min(e.bound) == d {
		e.done = true
		return
	}
	for {
		e.n.stepBounds(e.bound, e.next)
		e.bound, e.next = e.next, e.bound
		if slices.Min(e.bound) == d || e.workDue() {
			e.rounds++
			return
		}
		e.skipped++
	}
}

// workDue reports whether executing to the current bounds would fire
// anything anywhere: a shard scheduler holding an event at or before its
// bound, or an inbox with a message due by it.
func (e *engineRun) workDue() bool {
	for i, s := range e.n.shards {
		if st := e.status[i]; st.ok && st.at <= e.bound[i] {
			return true
		}
		for _, box := range s.in {
			if box.pendingDue(e.bound[i]) {
				return true
			}
		}
	}
	return false
}

// runWorker advances this worker's shards (strided assignment, fixed for
// the whole run) round by round: drain the inboxes up to each owned
// shard's bound, run its scheduler to it, publish its next-event status
// and fired count, and meet the other workers at the barrier, whose last
// arrival decides the next round.
func (n *Network) runWorker(w, workers int, bar *barrier, eng *engineRun) {
	for !eng.done {
		for i := w; i < len(n.shards); i += workers {
			s := n.shards[i]
			s.drainInboxes(eng.bound[i])
			fired := s.sched.Fired()
			s.sched.RunUntil(eng.bound[i])
			at, ok := s.sched.NextAt()
			eng.status[i] = shardStatus{at: at, ok: ok, fired: s.sched.Fired() - fired}
		}
		t0 := engineNow()
		bar.await()
		eng.stall[w] += engineNow() - t0
	}
}
