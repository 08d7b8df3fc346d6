package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// childTimeout bounds one child run, several times the longest traced
// run at scale 1; a hung simulation counts as a failed run instead of
// stalling the benchmark.
const childTimeout = 60 * time.Second

// runner starts measured children of this executable.
type runner struct {
	exe   string
	seed  int64
	scale float64
}

func newRunner(seed int64, scale float64) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	return &runner{exe: exe, seed: seed, scale: scale}, nil
}

// child runs one workload once in a fresh process and waits for it.
func (r *runner) child(w string, traced bool) (*sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, r.exe,
		"-workload", w,
		"-seed", strconv.FormatInt(r.seed, 10),
		"-scale", strconv.FormatFloat(r.scale, 'g', -1, 64),
		"-traced="+strconv.FormatBool(traced))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child process: %w", err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &s, nil
}

// refNodes sizes the host reference: about 0.1 s on the 2-core host the
// benchmark was defined on (refNominalS).
const refNodes = 300_000

// refNominalS is the host reference's duration on the host the benchmark
// was defined on, when that host was quiet. Host-corrected times are in
// seconds of that host: a time measured while the reference took ref
// seconds is scaled by refNominalS/ref.
const refNominalS = 0.1

var refSink atomic.Int64

// hostRef times a fixed workload of standard-library code shaped like the
// simulator's (small allocations, map churn, pointer chasing, a sort and
// the GC cycles they cause), on every core at once, as a reading of how
// fast the host is right now. The host this benchmark was defined on
// drifted by up to 2x within minutes; a SHA-256 loop tracked that drift
// poorly, this workload well. It runs in the parent, whose heap is small
// and stable.
func hostRef() float64 {
	t := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSink.Add(refWork(refNodes))
		}()
	}
	wg.Wait()
	d := time.Since(t).Seconds()
	runtime.GC() // collect the reference's garbage before the child starts
	return d
}

type refNode struct {
	next *refNode
	val  [6]int64
}

func refWork(n int) int64 {
	m := map[int]*refNode{}
	var head *refNode
	for i := 0; i < n; i++ {
		nd := &refNode{next: head}
		nd.val[0] = int64(i * 7919 % 100003)
		head = nd
		m[i*31] = nd
		if i%3 == 0 {
			delete(m, i/2*31)
		}
	}
	xs := make([]int64, 0, n)
	for nd := head; nd != nil; nd = nd.next {
		xs = append(xs, nd.val[0])
	}
	slices.Sort(xs)
	return xs[n/2] + int64(len(m))
}

// record collects one workload's runs as they finish.
type record struct {
	attempted int
	failures  []string
	runs      []*sample // successful untraced runs
	traced    []*sample // successful traced runs
}

// session is one benchmark invocation's measurements.
type session struct {
	r        *runner
	expected map[string]string // pinned digests for this seed and scale
	records  map[string]*record
	order    []string // workloads of every run, in run order
	hostRefS []float64
}

func newSession(r *runner, golden goldenFile) *session {
	return &session{
		r:        r,
		expected: golden.lookup(r.seed, r.scale),
		records:  map[string]*record{},
	}
}

// run starts one child and files its sample under the workload, or the
// failure that stopped it.
func (s *session) run(w string, traced bool) {
	rec := s.records[w]
	if rec == nil {
		rec = &record{}
		s.records[w] = rec
	}
	rec.attempted++
	s.order = append(s.order, w)
	kind := "run"
	if traced {
		kind = "traced run"
	}
	fail := func(format string, args ...any) {
		rec.failures = append(rec.failures,
			fmt.Sprintf("%s: %s %d: %s", w, kind, rec.attempted, fmt.Sprintf(format, args...)))
	}
	s.hostRefS = append(s.hostRefS, hostRef())
	smp, err := s.r.child(w, traced)
	if err != nil {
		fail("%v", err)
		return
	}
	smp.refIdx = len(s.hostRefS) - 1
	// Every run of one spec must reproduce the pinned digest or, for an
	// unpinned seed or scale, the first run's.
	want, pinned := s.expected[w], "golden"
	if want == "" {
		want, pinned = rec.firstDigest(), "first run"
	}
	switch {
	case want != "" && smp.Digest != want:
		fail("output digest %s differs from the %s's %s", smp.Digest, pinned, want)
	case smp.OracleDigest != "" && smp.OracleDigest != smp.Digest:
		fail("serial run digest %s differs from the %d-worker run's %s",
			smp.OracleDigest, meshWorkers(), smp.Digest)
	case !rec.countsAgree(smp):
		fail("work counts differ from the first run's")
	case traced:
		rec.traced = append(rec.traced, smp)
	default:
		rec.runs = append(rec.runs, smp)
	}
}

// refAround is the host reference for a run: the mean of the references
// timed just before its child and just after it (before the next child),
// which centres the reading on the run and halves the reference's own
// noise.
func (s *session) refAround(smp *sample) float64 {
	refs := s.hostRefS[smp.refIdx:min(smp.refIdx+2, len(s.hostRefS))]
	var sum float64
	for _, r := range refs {
		sum += r
	}
	return sum / float64(len(refs))
}

func (rec *record) first() *sample {
	if len(rec.runs) > 0 {
		return rec.runs[0]
	}
	if len(rec.traced) > 0 {
		return rec.traced[0]
	}
	return nil
}

func (rec *record) firstDigest() string {
	if f := rec.first(); f != nil {
		return f.Digest
	}
	return ""
}

func (rec *record) countsAgree(smp *sample) bool {
	f := rec.first()
	if f == nil {
		return true
	}
	for _, c := range exactCounts {
		if f.Counts[c.name] != smp.Counts[c.name] {
			return false
		}
	}
	return true
}

// rounds runs interleaved rounds: one untraced child per workload in
// order and, with tracedToo, one traced child per workload after each.
// With n > 0 it runs n rounds. Otherwise it
// starts a round while the longest round so far would still end within
// budget, and the first minRounds rounds while budget has not passed.
func (s *session) rounds(ws []string, n int, budget time.Duration, tracedToo bool) {
	const minRounds = 3
	start := time.Now()
	var longest time.Duration
	more := func(i int) bool {
		if n > 0 {
			return i < n
		}
		elapsed := time.Since(start)
		return elapsed+longest <= budget || i < minRounds && elapsed < budget
	}
	for i := 0; more(i); i++ {
		t := time.Now()
		for _, w := range ws {
			s.run(w, false)
			if tracedToo {
				s.run(w, true)
			}
		}
		longest = max(longest, time.Since(t))
	}
}

// goldenFile pins output digests per seed and scale.
type goldenFile struct {
	// Digests maps seed, then scale (as strconv 'g' formats it), then
	// workload to the SHA-256 of the run's simulated output.
	Digests map[string]map[string]map[string]string `json:"digests"`
}

func scaleKey(scale float64) string { return strconv.FormatFloat(scale, 'g', -1, 64) }

func (g goldenFile) lookup(seed int64, scale float64) map[string]string {
	return g.Digests[strconv.FormatInt(seed, 10)][scaleKey(scale)]
}

func readGolden(path string) (goldenFile, error) {
	var g goldenFile
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// pin records digests for one seed and scale, replacing any earlier ones.
func (g *goldenFile) pin(seed int64, scale float64, digests map[string]string) {
	if g.Digests == nil {
		g.Digests = map[string]map[string]map[string]string{}
	}
	k := strconv.FormatInt(seed, 10)
	if g.Digests[k] == nil {
		g.Digests[k] = map[string]map[string]string{}
	}
	g.Digests[k][scaleKey(scale)] = digests
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median and quartiles follow Python's statistics.median and
// statistics.quantiles(n=4) (the exclusive method), the rule the
// benchmark's spreads are judged by.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
