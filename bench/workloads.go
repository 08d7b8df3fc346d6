package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	ctms "repro"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

// A workload is one input set driven through the calls a user of the
// repository makes. setup builds the spec from the seed and makes every
// call that precedes the run; the returned instance's run and verify are
// timed separately (span.run_s, span.verify_s).
type workload struct {
	name string
	// duration is the simulated length of one run at scale 1.
	duration time.Duration
	setup    func(seed int64, dur time.Duration) (*instance, error)
}

// An instance is one set-up workload, ready to run once.
type instance struct {
	run func() error
	// verify digests the simulated output and reads the exact work
	// counts from the public results.
	verify func() (digest string, counts map[string]float64)
	// oracle, when set, reruns the same spec serially and returns its
	// digest, which must equal verify's.
	oracle func() (string, error)
}

// workloads is the benchmark's fixed set, in the interleaving order of a
// round. Why each one is here is recorded in BENCHMARK.json.
var workloads = []workload{
	{name: "paper-stream", duration: 1800 * time.Second, setup: setupPaperStream},
	{name: "stock-relay", duration: 1200 * time.Second, setup: setupStockRelay},
	{name: "population-storm", duration: 600 * time.Second, setup: setupPopulationStorm},
	{name: "metro-mesh", duration: 12 * time.Second, setup: setupMetroMesh},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// exactCounts are the work counts every run reads from the public
// results, zero where the workload does not exercise the layer. They are
// a pure function of the spec: a change that only speeds the simulator up
// must leave every one of them identical.
var exactCounts = []metric{
	{"sim.events", "count", lower},
	{"ring.utilization", "share", higher},
	{"ring.purges", "count", lower},
	{"rtpc.tx_cpu_util", "share", lower},
	{"rtpc.rx_cpu_util", "share", lower},
	{"ctmsp.delivered_ratio", "share", higher},
	{"inet.delivered_ratio", "share", higher},
	{"playout.glitches", "count", lower},
	{"playout.latency_p99_ms", "ms", lower},
	{"session.admitted", "count", higher},
	{"session.rejected", "count", lower},
	{"session.shed", "count", lower},
	{"session.admission_ratio", "share", higher},
	{"workload.arrivals", "count", higher},
	{"topo.rounds", "count", lower},
	{"topo.rounds_skipped", "count", higher},
	{"router.forwarded_frames", "count", higher},
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// setupSingle prepares one ctms.Run experiment; deliveredKey names the
// protocol layer whose delivered ratio the run reports.
func setupSingle(o ctms.Options, deliveredKey string) (*instance, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	var res *ctms.Result
	return &instance{
		run: func() (err error) {
			res, err = ctms.Run(o)
			return err
		},
		verify: func() (string, map[string]float64) {
			return digest(res.Report), map[string]float64{
				"ring.utilization": res.RingUtilization,
				"ring.purges":      float64(res.RingPurges),
				"rtpc.tx_cpu_util": res.TxCPUUtil,
				"rtpc.rx_cpu_util": res.RxCPUUtil,
				deliveredKey:       res.DeliveredFraction(),
				"playout.glitches": float64(res.Glitches),
				// The logic analyzer's exact transmit-to-receive latency
				// (Figures 5-3/5-4), the single-stream runs' per-packet delay.
				"playout.latency_p99_ms": res.Truth[ctms.HistTxToRx].QuantileMicros(0.99) / 1000,
			}
		},
	}, nil
}

// setupPaperStream is §5.3's Test Case B: one 2000 B / 12 ms CTMSP stream
// over the public loaded ring between multiprocessing hosts, seen through
// the PC/AT timestamper.
func setupPaperStream(seed int64, dur time.Duration) (*instance, error) {
	o := ctms.TestCaseB()
	o.Seed, o.Duration = seed, dur
	return setupSingle(o, "ctmsp.delivered_ratio")
}

// setupStockRelay is §1's unmodified user-process relay over IP and the
// reliable transport at the 150 KB/s that failed completely.
func setupStockRelay(seed int64, dur time.Duration) (*instance, error) {
	o := ctms.StockUnixAt(150_000)
	o.Seed, o.Duration = seed, dur
	return setupSingle(o, "inet.delivered_ratio")
}

// setupPopulationStorm is the E19 population at its top offered rate with
// a mid-run insertion storm: heavy churn through admission, shedding,
// playout and the latency histogram on one ring.
func setupPopulationStorm(seed int64, dur time.Duration) (*instance, error) {
	s, err := ctms.NewSession(ctms.SessionOptions{
		Name:           "population-storm",
		Seed:           seed,
		Duration:       dur,
		BackgroundUtil: 0.05,
		Population: &ctms.PopulationSpec{
			ArrivalsPerSec:  32,
			ZipfSkew:        1.1,
			Titles:          32,
			ChurnHalfLife:   3 * time.Second,
			StormAt:         dur / 2,
			StormInsertions: 12,
		},
	})
	if err != nil {
		return nil, err
	}
	var res *ctms.SessionResult
	return &instance{
		run: func() (err error) {
			res, err = s.Run()
			return err
		},
		verify: func() (string, map[string]float64) {
			var arrivals, glitches, sent, delivered float64
			for _, st := range res.Streams {
				if st.Arrived {
					arrivals++
				}
				glitches += float64(st.Glitches)
				sent += float64(st.Sent)
				delivered += float64(st.Delivered)
			}
			return digest(res.Report), map[string]float64{
				"ring.utilization":        res.RingUtilization,
				"ring.purges":             reportPurges(res.Report),
				"ctmsp.delivered_ratio":   ratio(delivered, sent),
				"playout.glitches":        glitches,
				"playout.latency_p99_ms":  res.PlayoutLatencyP99.Seconds() * 1000,
				"session.admitted":        float64(res.Admitted),
				"session.rejected":        float64(res.Rejected),
				"session.shed":            float64(res.Shed),
				"session.admission_ratio": ratio(float64(res.Admitted), float64(res.Admitted+res.Rejected)),
				"workload.arrivals":       arrivals,
			}
		},
	}, nil
}

// reportPurges reads the ring's purge count from a session report, the
// one public place a session exposes it.
func reportPurges(report string) float64 {
	_, rest, ok := strings.Cut(report, " purges=")
	if !ok {
		return 0
	}
	var n float64
	if _, err := fmt.Sscanf(rest, "%g", &n); err != nil {
		return 0
	}
	return n
}

// meshWorkers is the worker count of the measured mesh run: one per
// available core, as a user running the engine would choose.
func meshWorkers() int { return min(runtime.GOMAXPROCS(0), 64) }

// setupMetroMesh is E20's 8×8 grid with a diagonal trunk carrying the
// metro census: the only workload through topo, router, the population
// compile and 64 small schedulers.
func setupMetroMesh(seed int64, dur time.Duration) (*instance, error) {
	spec := core.E20Topology(8, core.SweepSeed(seed, 20), sim.Time(dur))
	n, err := topo.Build(spec)
	if err != nil {
		return nil, err
	}
	workers := meshWorkers()
	var res *topo.Results
	return &instance{
		run: func() error {
			res = n.Run(workers)
			return nil
		},
		verify: func() (string, map[string]float64) {
			var util, purges, fwd, glitches, sent, delivered, admitted, rejected float64
			for _, rg := range res.Rings {
				util += rg.Utilization
				purges += float64(rg.Counters.PurgeCount)
			}
			for _, l := range res.Links {
				fwd += float64(l.A.Forwarded + l.B.Forwarded)
			}
			for _, st := range res.Streams {
				if st.Decision.Admitted {
					admitted++
				} else {
					rejected++
				}
				glitches += float64(st.Glitches)
				sent += float64(st.Sent)
				delivered += float64(st.Delivered)
			}
			return digest(res.Fingerprint()), map[string]float64{
				"ring.utilization":        ratio(util, float64(len(res.Rings))),
				"ring.purges":             purges,
				"ctmsp.delivered_ratio":   ratio(delivered, sent),
				"playout.glitches":        glitches,
				"session.admitted":        admitted,
				"session.rejected":        rejected,
				"session.admission_ratio": ratio(admitted, admitted+rejected),
				"workload.arrivals":       float64(len(res.Streams)),
				"topo.rounds":             float64(res.Engine.Rounds),
				"topo.rounds_skipped":     float64(res.Engine.RoundsSkipped),
				"router.forwarded_frames": fwd,
				// Wall time, not a count: it rides with the counts but is
				// never compared exactly.
				"topo.barrier_stall_share": res.Engine.StallFraction(workers),
			}
		},
		oracle: func() (string, error) {
			serial, err := topo.Build(spec)
			if err != nil {
				return "", err
			}
			return digest(serial.Run(1).Fingerprint()), nil
		},
	}, nil
}
