package topo

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

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
	next uint64     // guarded by mu
	sent uint64     // guarded by mu
	// drainRound is the candidate-round index of the owner's most recent
	// drain. The idle-skip check needs it: a fast worker that decides
	// round q has work drains its inboxes while a slower worker is still
	// evaluating q, removing the very evidence the slow worker needs to
	// reach the same verdict. Seeing drainRound == q tells the slow
	// worker "the owner already executed this round" and forces the same
	// verdict even though the messages are gone.
	drainRound uint64 // guarded by mu
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
	b.sent++
	b.mu.Unlock()
}

// drainDue appends every message with deliverAt ≤ bound to into and
// removes them from the queue. deliverAt is nondecreasing within an
// inbox, so the due messages are exactly a prefix. round is the
// candidate-round index of the executing round; it is recorded even
// when nothing was due, so the idle-skip check of a worker still
// evaluating this round sees that its owner already chose to execute.
//
//ctmsvet:crossing drain receiver-side dequeue: runs only in the barrier step between windows, when the sending half's window is sealed
func (b *inbox) drainDue(bound sim.Time, round uint64, into []crossMsg) []crossMsg {
	b.mu.Lock()
	b.drainRound = round
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

// pendingDue reports whether this inbox forces candidate round `round`
// (bounded by `bound` at the receiver) to execute: either a queued
// message is due by the bound, or the owner already drained for exactly
// this round (evidence consumed — see the drainRound field). The match
// must be exact: drainRound > round means the owner *skipped* this
// round and drained a later one, whose removals are provably irrelevant
// here (everything it took was due strictly after this round's bound).
// Racing appends cannot flip a false verdict either: a message sent
// during execution of round r ≥ round carries deliverAt strictly beyond
// nb(r) ≥ nb(round) (the conservation argument in DESIGN.md §9).
//
//ctmsvet:crossing peek idle-skip peek: reads the drain round and the sealed head under the mutex, moves no messages
func (b *inbox) pendingDue(bound sim.Time, round uint64) bool {
	b.mu.Lock()
	due := b.drainRound == round || (len(b.msgs) > 0 && b.msgs[0].deliverAt <= bound)
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
//
//ctmsvet:hotpath
func (s *shard) getArrival() *arrival {
	if a := s.arrivals.Get(); a != nil {
		return a
	}
	a := &arrival{owner: s} //ctmsvet:allow hotpath cold refill path, runs only until the arrival pool reaches steady state
	a.fn = func() {         //ctmsvet:allow hotpath the injection closure is built once per pooled arrival, not per frame
		a.egress.Inject(a.frame)
		a.owner.putArrival(a)
	}
	return a
}

// putArrival clears a fired arrival and returns it to the pool.
//
//ctmsvet:hotpath
func (s *shard) putArrival(a *arrival) {
	a.egress = nil
	a.frame = router.Forwarded{}
	s.arrivals.Put(a)
}

// barrier is a reusable cyclic barrier: await blocks until all n workers
// arrive, then releases the generation together.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int    // guarded by mu
	gen     uint64 // guarded by mu
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// drainInboxes moves every cross-ring frame due by bound out of this
// shard's inboxes and schedules its injection at its arrival time. The
// merge order — (deliverAt, direction index, send seq) — is a total
// order on messages, so the scheduler sees identical (at, seq) insertions
// regardless of how many workers the run uses.
//
//ctmsvet:hotpath
func (s *shard) drainInboxes(bound sim.Time, round uint64) {
	due := s.scratch[:0]
	for _, box := range s.in {
		due = box.drainDue(bound, round, due)
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
// analytically, and how long workers sat in the barrier (wall-clock,
// measured only when a clock was injected via SetWallClock — the topo
// package itself never reads one, keeping the simulation deterministic).
// None of this is part of Fingerprint: two runs of the same Spec produce
// identical Rounds and RoundsSkipped at any worker count, but stall and
// wall nanos measure the host, not the model.
type EngineStats struct {
	// Rounds is the number of lookahead rounds the workers executed.
	Rounds uint64
	// RoundsSkipped counts rounds proven event-free from published shard
	// statuses and inbox heads, advanced analytically with no barrier.
	RoundsSkipped uint64
	// BarrierStallNanos sums the wall time all workers spent blocked in
	// the barrier (0 for serial runs or when no wall clock is set).
	BarrierStallNanos int64
	// WallNanos is the wall time of the whole worker phase.
	WallNanos int64
}

// StallFraction is the fraction of total worker wall time spent blocked
// at the barrier — the quantity the per-link windows and idle skips
// exist to shrink.
func (e EngineStats) StallFraction(workers int) float64 {
	if e.WallNanos <= 0 || workers <= 0 {
		return 0
	}
	return float64(e.BarrierStallNanos) / (float64(e.WallNanos) * float64(workers))
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
// its earliest pending event, if any. Written by the owning worker
// before the barrier, read by every worker's skip check after it; the
// two parity slots keep a fast worker's next-round writes off a slow
// worker's current-round reads.
type shardStatus struct {
	at sim.Time
	ok bool
}

// engineRun is the shared state of one Run's worker phase.
type engineRun struct {
	status  [2][]shardStatus
	stall   []int64 // per-worker barrier wait, wall nanos
	rounds  uint64  // written by worker 0 only
	skipped uint64  // written by worker 0 only
}

// Run executes the network for the spec's duration and collects results.
// workers ≤ 0 means GOMAXPROCS; workers is clamped to the shard count.
// One worker steps its shards inline with no synchronization at all —
// that run is the serial oracle — and any other worker count produces
// bit-identical Results: shards only interact through inboxes, drains
// happen at the same simulated times with the same merge order, and the
// per-link conservative windows (every link latency ≥ the bridges'
// switch cost) guarantee a round's drains can never see a racing
// round's sends.
func (n *Network) Run(workers int) *Results {
	sim.Checkf(!n.ran, "topo: Network.Run is single-shot; Build a fresh network")
	n.ran = true
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(n.shards) {
		workers = len(n.shards)
	}
	if workers < 1 {
		workers = 1
	}

	// Shards publish process-wide metrics once at the end rather than
	// racing tiny per-window flushes thousands of times a simulated
	// second.
	for _, s := range n.shards {
		s.sched.DeferMetricsFlush(true)
	}

	eng := &engineRun{stall: make([]int64, workers)}
	for p := range eng.status {
		eng.status[p] = make([]shardStatus, len(n.shards))
	}
	t0 := engineNow()
	if workers == 1 {
		n.runWorker(0, 1, nil, eng)
	} else {
		bar := newBarrier(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			//ctmsvet:allow shardowned this is the ownership transfer itself: Run hands each worker its disjoint shard slice once, before any window starts, and joins them all before touching shard state again
			go func(w int) {
				defer wg.Done()
				n.runWorker(w, workers, bar, eng)
			}(w)
		}
		wg.Wait()
	}
	n.engStats = EngineStats{
		Rounds:        eng.rounds,
		RoundsSkipped: eng.skipped,
		WallNanos:     engineNow() - t0,
	}
	for _, s := range eng.stall {
		n.engStats.BarrierStallNanos += s
	}

	for _, s := range n.shards {
		s.sched.FlushMetrics()
		for _, g := range s.gens {
			g.Stop()
		}
	}
	return n.collect(workers)
}

// stepBounds advances the per-link lookahead recurrence one round:
// nb[i] = min(duration, min over shard i's incident links of
// (b[peer] + link latency)), with linkless shards jumping straight to
// the duration. The recurrence is a pure function of the topology, so
// every worker iterates an identical copy with no communication; it is
// monotone (nb ≥ b pointwise, by induction from b ≡ 0) and grows every
// unfinished entry by at least the minimum link latency per round, so
// it reaches the duration in at most ceil(duration/minLatency)+1 rounds
// — and on a uniform-latency connected graph it reproduces the old
// global grid k·window exactly, which is what keeps pre-PR fingerprints
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

// anyWorkDue reports whether executing candidate round `round` to the
// nb bounds would fire anything anywhere: a shard scheduler holding an
// event at or before its bound, or an inbox that forces the round (a
// due message, or its owner having already drained for exactly this
// round). When it returns false the round is a provable no-op — every
// RunUntil would only move a clock forward — and the workers advance
// the recurrence without draining, running or barriering.
//
// The verdict must be identical across workers or the barrier counts
// desynchronize. It is: statuses are parity-sealed at the last executed
// round's barrier; racing appends carry delivery times strictly beyond
// every bound compared here (conservation, DESIGN.md §9); and a fast
// worker's racing *drain* — which removes the due messages a slower
// evaluator still needs to see — leaves drainRound == round behind as
// equivalent evidence (pendingDue). A worker can only decide "execute"
// when the sealed state says so: the first worker to decide it must
// have seen a sealed status or a due head, since drainRound only
// reaches `round` after some worker already decided.
func (n *Network) anyWorkDue(nb []sim.Time, st []shardStatus, round uint64) bool {
	for i, s := range n.shards {
		if st[i].ok && st[i].at <= nb[i] {
			return true
		}
		for _, box := range s.in {
			if box.pendingDue(nb[i], round) {
				return true
			}
		}
	}
	return false
}

// runWorker advances this worker's shards (strided assignment, fixed for
// the whole run) round by round: compute every shard's next per-link
// bound, skip the round outright if it is provably empty, otherwise
// drain the inboxes up to each owned shard's bound, run its scheduler to
// it, publish its next-event status, and meet the other workers at the
// barrier. The first round always executes (no statuses exist yet) and
// so does the final round (so every clock ends exactly at the duration).
func (n *Network) runWorker(w, workers int, bar *barrier, eng *engineRun) {
	d := n.spec.Duration
	b := make([]sim.Time, len(n.shards))  // bounds after the last round
	nb := make([]sim.Time, len(n.shards)) // candidate bounds for this round
	parity := 0
	var rounds, skipped, round uint64
	first := true
	for {
		round++ // candidate-round index: identical across workers because verdicts converge
		n.stepBounds(b, nb)
		final := true
		for _, t := range nb {
			if t < d {
				final = false
				break
			}
		}
		if !first && !final && !n.anyWorkDue(nb, eng.status[parity], round) {
			skipped++
			copy(b, nb)
			continue
		}
		first = false
		rounds++
		for i := w; i < len(n.shards); i += workers {
			s := n.shards[i]
			s.drainInboxes(nb[i], round)
			s.sched.RunUntil(nb[i])
			at, ok := s.sched.NextAt()
			eng.status[1-parity][i] = shardStatus{at: at, ok: ok}
		}
		if bar != nil {
			t0 := engineNow()
			bar.await()
			eng.stall[w] += engineNow() - t0
		}
		parity = 1 - parity
		copy(b, nb)
		if final {
			if w == 0 {
				eng.rounds, eng.skipped = rounds, skipped
			}
			return
		}
	}
}
