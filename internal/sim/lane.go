package sim

// laneRun bounds the quiet boundaries one Arm can hand a lane. Its backing
// is a fixed array inside the Lane, so a lane embedded in its owner costs
// no allocation of its own; a longer run simply ends in a callback, and
// the owner re-arms from there.
const laneRun = 16

// Lane is an owner's single pending boundary, kept in the scheduler's lane
// heap beside the timing wheel, followed by a run of quiet boundaries the
// scheduler fires in place. It models a sequence in which every boundary
// but the last would only schedule the next one: an rtpc CPU's segment
// ends where nothing but the next segment's start can happen.
//
// A quiet boundary is exact. Arm and each quiet boundary take the next seq
// exactly where the owner's After would have, so every boundary keeps the
// (at, seq) it would have had as a wheel event, ties with other events
// resolve as before, and each counts in Fired. A quiet boundary runs no
// callback: it moves the clock, advances the boundary by the next queued
// duration and re-keys it. The owner books what those boundaries started
// lazily, from Started, and cuts the run short with Truncate as soon as a
// boundary might have to do more.
//
// The zero value is unusable; Init binds a lane to its scheduler and
// callback. A lane must not be copied once armed.
type Lane struct {
	key
	s     *Scheduler
	fn    func()
	armed bool
	quiet [laneRun]Duration // durations the quiet boundaries start
	n     int               // quiet[:n] is the run
	pos   int               // quiet[:pos] has fired
}

// Init binds the lane to s; fn runs at each boundary that is not quiet.
func (l *Lane) Init(s *Scheduler, fn func()) {
	if fn == nil {
		Checkf(false, "lane with nil callback")
	}
	l.s, l.fn = s, fn
}

// Arm schedules the lane's boundary d after now, with an empty quiet run.
// It takes the next seq exactly as After(d, …) would. The lane must not
// be armed already.
func (l *Lane) Arm(d Duration) {
	if l.armed {
		Checkf(false, "lane armed twice")
	}
	if d < 0 {
		Checkf(false, "lane armed with negative delay %v", d)
	}
	s := l.s
	l.at, l.seq = s.now+d, s.seq
	s.seq++
	l.n, l.pos = 0, 0
	l.armed = true
	s.lanes.push(l, &l.key)
}

// Quiet appends one quiet boundary to the run: when the boundary pending
// now fires and the run has not been truncated, the scheduler fires it in
// place and re-arms it d later. It reports false, queueing nothing, when
// the run is full.
func (l *Lane) Quiet(d Duration) bool {
	if l.n == len(l.quiet) {
		return false
	}
	l.quiet[l.n] = d
	l.n++
	return true
}

// Truncate ends the run at the boundary pending now: that boundary calls
// the lane's callback, and no queued quiet boundary fires.
func (l *Lane) Truncate() { l.n = l.pos }

// Started returns the durations of the quiet boundaries that fired since
// the last Arm, in firing order; each started the next stretch of the run.
func (l *Lane) Started() []Duration { return l.quiet[:l.pos] }

// fireLane dispatches the lane's pending boundary, which step found to be
// the earliest pending item, due by bound; next is the earliest pending
// event (nil if none). While l's next quiet boundary is still due by
// bound and ahead of next and of every other lane, it fires that one too:
// a quiet boundary changes nothing else, so step would pick it again.
func (s *Scheduler) fireLane(l *Lane, next *Event, bound Time) {
	for {
		s.now = l.at
		s.fired++
		if l.pos == l.n {
			s.lanes.pop()
			l.armed = false
			l.fn()
			return
		}
		s.quiet++
		l.at = s.now + l.quiet[l.pos]
		l.pos++
		l.seq = s.seq
		s.seq++
		if s.lanes.down(0) || l.at > bound || next != nil && next.before(&l.key) {
			return
		}
	}
}
