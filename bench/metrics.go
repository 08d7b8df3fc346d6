package main

import "runtime"

const (
	lower  = "lower"
	higher = "higher"
)

// metric names one reported quantity, its unit and which way is better.
// BENCHMARK.json lists the same names and units.
type metric struct {
	name, unit, better string
}

// endToEnd are what a user of the simulator sees, measured on untraced
// runs: the medians across runs are the gated numbers.
//
// Throughput is simulated events per host second rather than simulated
// seconds per host second: for one spec the event count is exact, so the
// two move together, but work per simulated second varies with the seed
// (a population draws more or fewer streams) while the cost of an event
// hardly does. Both times are host-corrected: scaled to the speed of the
// host the benchmark was defined on by the host reference timed around
// the run (see hostRef), so that drift of the host between runs does not
// read as a change of the program.
var endToEnd = []metric{
	{"event_rate", "events/s", higher},
	{"setup_s", "s", lower},
	{"allocs_per_event", "allocs/event", lower},
	{"alloc_bytes_per_event", "B/event", lower},
	{"peak_rss_mb", "MB", lower},
}

// endToEndValues computes one run's end-to-end metrics; ref is the host
// reference around it.
func endToEndValues(s *sample, ref float64) map[string]float64 {
	speed := ref / refNominalS // above 1 on a host slower than nominal
	return map[string]float64{
		"event_rate":            float64(s.Events) / s.RunS * speed,
		"setup_s":               s.SetupS / speed,
		"allocs_per_event":      ratio(float64(s.Mallocs), float64(s.Events)),
		"alloc_bytes_per_event": ratio(float64(s.AllocBytes), float64(s.Events)),
		"peak_rss_mb":           s.PeakRSSMB,
	}
}

// perLayer are the traced runs' numbers: host time and allocations
// attributed to each layer, the spans the benchmark records around its
// own calls, and the exact work counts.
var perLayer = func() []metric {
	var ms []metric
	for _, l := range layers {
		ms = append(ms,
			metric{l + ".cpu_share", "share", lower},
			metric{l + ".allocs_per_event", "allocs/event", lower})
	}
	ms = append(ms,
		metric{"tiny.allocs_per_event", "allocs/event", lower},
		metric{"trace_overhead", "share", lower},
		metric{"profile_samples", "count", higher},
		metric{"span.setup_s", "s", lower},
		metric{"span.run_s", "s", lower},
		metric{"span.verify_s", "s", lower},
		metric{"topo.barrier_stall_share", "share", lower},
		metric{"host_ref_s", "s", lower})
	return append(ms, exactCounts...)
}()

// stat summarizes one metric over a workload's runs.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64, unit string) stat {
	q1, q3 := quartiles(xs)
	return stat{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: unit}
}

// workloadReport is one workload's outcome in a benchmark invocation.
type workloadReport struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	ErrorRate float64  `json:"error_rate"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics are the end-to-end metrics over the untraced runs.
	Metrics map[string]stat `json:"metrics"`
	// Layers are the per-layer metrics; the exact counts among them come
	// from any run, the rest from the traced runs.
	Layers map[string]float64 `json:"layers"`
	Digest string             `json:"digest"`
}

// report is a full benchmark invocation's output, the input of -compare.
type report struct {
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Order lists the workloads of every run, traced or not, as they ran.
	Order     []string                   `json:"order"`
	HostRefS  []float64                  `json:"host_ref_s"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func (s *session) report() *report {
	rep := &report{
		Seed:       s.r.seed,
		Scale:      s.r.scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Order:      s.order,
		HostRefS:   s.hostRefS,
		Workloads:  map[string]*workloadReport{},
	}
	for name := range s.records {
		rep.Workloads[name] = s.workloadReport(name)
	}
	return rep
}

func (s *session) workloadReport(name string) *workloadReport {
	rec := s.records[name]
	wr := &workloadReport{
		Attempted: rec.attempted,
		Failed:    len(rec.failures),
		ErrorRate: ratio(float64(len(rec.failures)), float64(rec.attempted)),
		Failures:  rec.failures,
		Metrics:   map[string]stat{},
		Layers:    map[string]float64{"host_ref_s": median(s.hostRefS)},
		Digest:    rec.firstDigest(),
	}
	values := func(runs []*sample, name string) []float64 {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, endToEndValues(r, s.refAround(r))[name])
		}
		return xs
	}
	for _, m := range endToEnd {
		wr.Metrics[m.name] = summarize(values(rec.runs, m.name), m.unit)
	}
	if f := rec.first(); f != nil {
		for _, c := range exactCounts {
			wr.Layers[c.name] = f.Counts[c.name]
		}
	}
	if len(rec.traced) == 0 {
		return wr
	}

	var cpuTotal int64
	var events, tiny float64
	var setup, run, verify, stall []float64
	for _, t := range rec.traced {
		for l, n := range t.Layers.CPUSamples {
			wr.Layers[l+".cpu_share"] += float64(n)
			cpuTotal += n
		}
		for l, n := range t.Layers.Allocs {
			wr.Layers[l+".allocs_per_event"] += n
		}
		events += float64(t.Events)
		tiny += float64(t.TinyAllocs)
		setup = append(setup, t.FirstSetupS)
		run = append(run, t.RunS)
		verify = append(verify, t.VerifyS)
		stall = append(stall, t.Counts["topo.barrier_stall_share"])
	}
	for _, l := range layers {
		wr.Layers[l+".cpu_share"] = ratio(wr.Layers[l+".cpu_share"], float64(cpuTotal))
		wr.Layers[l+".allocs_per_event"] = ratio(wr.Layers[l+".allocs_per_event"], events)
	}
	wr.Layers["tiny.allocs_per_event"] = ratio(tiny, events)
	wr.Layers["profile_samples"] = float64(cpuTotal)
	wr.Layers["span.setup_s"] = median(setup)
	wr.Layers["span.run_s"] = median(run)
	wr.Layers["span.verify_s"] = median(verify)
	wr.Layers["topo.barrier_stall_share"] = median(stall)
	if untraced := wr.Metrics["event_rate"].Median; untraced > 0 {
		wr.Layers["trace_overhead"] = 1 - median(values(rec.traced, "event_rate"))/untraced
	}
	return wr
}

// metricValue and lineResult are the benchmark's one-line result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lineResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result reports the end-to-end metrics, or with traced the per-layer
// ones.
func (wr *workloadReport) result(traced bool) lineResult {
	out := lineResult{
		Correct:   wr.Attempted > 0 && wr.Failed == 0,
		Attempted: wr.Attempted,
		Failed:    wr.Failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		for _, m := range perLayer {
			out.Metrics[m.name] = metricValue{wr.Layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			out.Metrics[m.name] = metricValue{wr.Metrics[m.name].Median, m.unit}
		}
	}
	return out
}
