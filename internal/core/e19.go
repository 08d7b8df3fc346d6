package core

import (
	"fmt"

	"repro/internal/lab"
	"repro/internal/session"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/workload"
)

// E19: the population question behind §1's "millions of users". E17
// admits a hand-enumerated stream list; a city-scale CTMS faces a
// statistical population instead — Poisson session arrivals, exponential
// hang-ups, demand Zipf-skewed across a catalog, a mixed codec table.
// This experiment sweeps the offered arrival rate and measures the
// distributional outcomes the paper's per-stream tables cannot show:
// the admission-rate curve versus offered load, the p99/p999 playout
// latency of every delivered packet, and — under a correlated insertion
// storm — whether shedding stays fair (lowest class first) even when
// Zipf skew concentrates demand on a few titles. A census of the same
// population also runs on the sharded internetwork engine at 1, 2 and
// 4 workers, which must agree byte-for-byte (the E18 oracle extended to
// statistically generated workloads).

// e19TopRate caps the offered-load sweep in arrivals/second. Each
// admitted stream holds ~347 kbit/s for ~4.3 s on average (3 s
// half-life), so ~10 fit the 3.4 Mbit/s budget concurrently: 1/s
// (~4 concurrent) is light load, and the curve crosses the budget
// between 2/s and 8/s.
const e19TopRate = 32

// e19Population is the sweep's population shape at the given arrival
// rate: a 32-title catalog under s=1.1 skew with a 3 s churn half-life
// and the default codec mix.
func e19Population(arrivalsPerSec float64) *workload.PopulationSpec {
	return &workload.PopulationSpec{
		ArrivalsPerSec: arrivalsPerSec,
		ZipfSkew:       1.1,
		Titles:         32,
		ChurnHalfLife:  3 * sim.Second,
	}
}

// PopulationPoint is one offered-load point of the E19 sweep, exported
// (with PopulationSweep) so ctmsbench can record the same curves in its
// count record.
type PopulationPoint struct {
	OfferedPerSec float64 // offered arrivals/s
	Arrivals      int     // compiled arrivals (population streams)
	Admitted      int
	Rejected      int
	Shed          int
	Departed      int
	P99Us         float64 // playout-latency quantiles over delivered packets
	P999Us        float64
	WorstGPM      float64 // worst admitted glitches/min
	RingUtil      float64
	LatencyN      uint64 // delivered packets in the histogram
	ReportSum     string // Report() for determinism comparisons
}

// AdmissionRate is the fraction of population arrivals admitted.
func (p PopulationPoint) AdmissionRate() float64 {
	if p.Arrivals == 0 {
		return 0
	}
	return float64(p.Admitted) / float64(p.Arrivals)
}

// PopulationSweep runs the E19 offered-load sweep: one independent
// session per rate, each with its own SweepSeed-derived seed, fanned out
// across workers pool workers (0 = all cores). The result is identical
// at any worker count because each point is a self-contained simulation.
func PopulationSweep(base int64, dur sim.Time, rates []float64, workers int) ([]PopulationPoint, error) {
	cfgs := make([]session.Config, len(rates))
	for i, rate := range rates {
		cfgs[i] = session.Config{
			Name:           fmt.Sprintf("e19-%02.0f", rate),
			Seed:           SweepSeed(base, i),
			Duration:       dur,
			BackgroundUtil: 0.05,
			Population:     e19Population(rate),
		}
	}
	out := make([]*session.Results, len(cfgs))
	errs := make([]error, len(cfgs))
	lab.New(workers).Run(len(cfgs), func(i int) {
		out[i], errs[i] = session.Run(cfgs[i])
	})
	points := make([]PopulationPoint, len(cfgs))
	for i, r := range out {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", cfgs[i].Name, errs[i])
		}
		points[i] = PopulationPoint{
			OfferedPerSec: rates[i],
			Arrivals:      len(r.Streams),
			Admitted:      r.Admitted,
			Rejected:      r.Rejected,
			Shed:          r.ShedN,
			Departed:      r.Departed,
			P99Us:         r.PlayoutLatency.Quantile(0.99),
			P999Us:        r.PlayoutLatency.Quantile(0.999),
			WorstGPM:      r.WorstAdmittedGlitchRate(),
			RingUtil:      r.RingUtilization,
			LatencyN:      r.PlayoutLatency.N(),
			ReportSum:     r.Report(),
		}
	}
	return points, nil
}

func runE19(s Scale) *Comparison {
	c := &Comparison{}
	dur := 12 * sim.Second
	if s.Duration > 0 && s.Duration < dur {
		dur = s.Duration
	}
	base := s.Seed
	if base == 0 {
		base = 1991
	}

	rates := []float64{1, 4, 16, e19TopRate}
	points, err := PopulationSweep(base, dur, rates, 0)
	if err != nil {
		c.addf("population sweep", "-", false, "error: %v", err)
		return c
	}
	for _, p := range points {
		c.Notes = append(c.Notes, fmt.Sprintf(
			"%4.0f/s offered: %d arrivals, %d admitted %d rejected %d shed %d departed | p99=%.1fms p999=%.1fms (%d pkts) | ring util %.1f%%",
			p.OfferedPerSec, p.Arrivals, p.Admitted, p.Rejected, p.Shed, p.Departed,
			p.P99Us/1000, p.P999Us/1000, p.LatencyN, 100*p.RingUtil))
	}

	// Scale: the top-rate point must be a real population, not a toy —
	// unless the caller shrank the run below the full duration.
	top := points[len(points)-1]
	c.addf("population scale at top rate", "≥200 Poisson arrivals",
		top.Arrivals >= 200 || dur < 12*sim.Second, "%d arrivals over %v", top.Arrivals, dur)

	// The admission-rate curve: near-total admission at light load,
	// monotonically non-increasing, and a real knee (rejections) by the
	// top rate. Tolerance covers Poisson noise between adjacent points.
	monotone := true
	for i := 1; i < len(points); i++ {
		if points[i].AdmissionRate() > points[i-1].AdmissionRate()+0.05 {
			monotone = false
		}
	}
	c.addf("light load admits (almost) everyone", "admission rate ≥ 0.9 at 1/s",
		points[0].AdmissionRate() >= 0.9, "%.3f", points[0].AdmissionRate())
	c.addf("admission rate falls with offered load", "non-increasing curve",
		monotone, "%t", monotone)
	c.addf("overload rejects rather than breaks", "rejections at 32/s",
		top.Rejected > 0 && top.AdmissionRate() < points[0].AdmissionRate(),
		"%.3f admitted (%d rejected)", top.AdmissionRate(), top.Rejected)

	// Distributional latency: every delivered packet's delay past its
	// capture schedule. The tail must stay within the 40 ms prebuffer at
	// light load — that is what "imperceptible glitch rate" means when
	// the metric is a distribution rather than a mean.
	lo := points[0]
	c.addf("p99 playout latency at light load", "≤ 40 ms prebuffer",
		lo.LatencyN > 0 && lo.P99Us <= 40_000, "%.1f ms over %d packets", lo.P99Us/1000, lo.LatencyN)
	c.addf("p999 dominates p99", "ordered quantiles at every rate",
		allOrdered(points), "%t", allOrdered(points))
	c.addf("light-load glitch rate", "bounded (≤1/min worst admitted)",
		lo.WorstGPM <= 1.0, "%.2f/min", lo.WorstGPM)

	// Churn: with a 3 s half-life against a ≥6 s run, a healthy share of
	// admitted streams must hang up naturally, releasing budget.
	c.addf("churn departures release budget", "departures ≫ 0",
		top.Departed > top.Admitted/4, "%d of %d admitted", top.Departed, top.Admitted)

	// Shed fairness under skew: a correlated insertion storm at mid-run
	// shrinks capacity; the session must shed lowest class first even
	// though Zipf skew makes the population lopsided.
	stormCfg := session.Config{
		Name:           "e19-storm",
		Seed:           SweepSeed(base, 1000),
		Duration:       dur,
		BackgroundUtil: 0.05,
		Population:     e19Population(16),
	}
	stormCfg.Population.StormAt = dur / 2
	stormCfg.Population.StormInsertions = 3
	stormCfg.PlayoutPrebuffer = 130 * sim.Millisecond
	storm := mustRunSession(stormCfg)
	// Fairness is judged over the streams the storm actually confronted:
	// arrivals admitted before it that never hung up on their own. Churn
	// refills the low classes afterwards (a post-storm background arrival
	// is rightly admitted once the penalty expires), so unlike E17 the
	// whole-run class extremes would compare streams the shed policy
	// never saw together.
	minSurvivor, maxShed := session.ClassInteractive, session.ClassBackground
	for _, st := range storm.Streams {
		if !st.Decision.Admitted || st.Departed || st.ArrivedAt >= stormCfg.Population.StormAt {
			continue
		}
		if st.Shed {
			if st.Spec.Class > maxShed {
				maxShed = st.Spec.Class
			}
		} else if st.Spec.Class < minSurvivor {
			minSurvivor = st.Spec.Class
		}
	}
	c.addf("storm sheds population streams", "capacity shock forces degradation",
		storm.ShedN >= 1, "%d shed of %d admitted", storm.ShedN, storm.Admitted)
	c.addf("shed order honors class under skew", "background first, interactive last",
		storm.ShedN == 0 || maxShed <= minSurvivor,
		"worst shed class %v, best surviving %v", maxShed, minSurvivor)

	// Serial-vs-parallel matrix: the sweep fanned out across all cores
	// above; re-running it on a single worker must reproduce every point
	// byte-for-byte (each point is its own sealed simulation).
	serial, err := PopulationSweep(base, dur, rates, 1)
	identical := err == nil && len(serial) == len(points)
	for i := 0; identical && i < len(points); i++ {
		identical = serial[i].ReportSum == points[i].ReportSum
	}
	c.addf("sweep identical serial vs parallel", "bit-identical lab fan-out",
		identical, "%t", identical)

	// The sharded engine must extend its serial oracle to statistical
	// populations: the same census internetwork at 1, 2 and 4 workers.
	topoSpec := E19Census(SweepSeed(base, 2000), dur)
	fps := make([]string, 3)
	for i, workers := range []int{1, 2, 4} {
		n, err := topo.Build(topoSpec)
		if err != nil {
			c.addf("census build", "-", false, "error: %v", err)
			return c
		}
		fps[i] = n.Run(workers).Fingerprint()
	}
	c.addf("census fingerprint identical at 1/2/4 shard workers", "serial oracle holds",
		fps[0] == fps[1] && fps[1] == fps[2], "%t", fps[0] == fps[1] && fps[1] == fps[2])
	return c
}

// E19Census is the population census internetwork E19 verifies the
// sharded engine against: a four-ring line whose streams are expanded
// from a PopulationSpec at Build time. ctmsbench reuses it for the
// population shard-identity benchmark.
func E19Census(seed int64, duration sim.Time) topo.Spec {
	return topo.Spec{
		Name:     "e19-census",
		Seed:     seed,
		Duration: duration,
		Rings:    4,
		Links: []topo.LinkSpec{
			{A: 0, B: 1}, {A: 1, B: 2}, {A: 2, B: 3},
		},
		BackgroundUtil:   0.05,
		PlayoutPrebuffer: 150 * sim.Millisecond,
		Population: &workload.PopulationSpec{
			ArrivalsPerSec: 20,
			ZipfSkew:       1.0,
			Titles:         12,
			ChurnHalfLife:  sim.Second,
		},
	}
}

// allOrdered reports p999 ≥ p99 at every sweep point.
func allOrdered(points []PopulationPoint) bool {
	for _, p := range points {
		if p.P999Us < p.P99Us {
			return false
		}
	}
	return true
}

// mustRunSession runs one session config, panicking on the impossible
// (the config was just validated).
func mustRunSession(cfg session.Config) *session.Results {
	r, err := session.Run(cfg)
	sim.Checkf(err == nil, "e19: %v", err)
	return r
}
