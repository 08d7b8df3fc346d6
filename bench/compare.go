package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports checks cand against base: on every workload of the
// spec, every end-to-end median may be worse than base's by at most its
// bound (a share of base's median), the error rate may not rise, and the
// exact work counts and the output digest must be identical. It returns
// one line per violation.
func compareReports(spec *benchmarkSpec, base, cand *report) []string {
	var bad []string
	if base.Seed != cand.Seed || base.Scale != cand.Scale {
		return []string{fmt.Sprintf("seed/scale differ: %d/%g against %d/%g",
			base.Seed, base.Scale, cand.Seed, cand.Scale)}
	}
	for _, w := range spec.Workloads {
		b, c := base.Workloads[w.Name], cand.Workloads[w.Name]
		if b == nil || c == nil {
			bad = append(bad, fmt.Sprintf("%s: missing from a report", w.Name))
			continue
		}
		for _, m := range spec.EndToEnd {
			bs, bok := b.Metrics[m.Name]
			cs, cok := c.Metrics[m.Name]
			if !bok || !cok {
				bad = append(bad, fmt.Sprintf("%s: %s missing from a report", w.Name, m.Name))
				continue
			}
			worse := cs.Median > bs.Median*(1+m.Bound)
			if m.Better == higher {
				worse = cs.Median < bs.Median*(1-m.Bound)
			}
			if worse {
				bad = append(bad, fmt.Sprintf("%s: %s %.6g %s is worse than %.6g by more than %g",
					w.Name, m.Name, cs.Median, m.Unit, bs.Median, m.Bound))
			}
		}
		if c.ErrorRate > b.ErrorRate {
			bad = append(bad, fmt.Sprintf("%s: error_rate rose from %g to %g", w.Name, b.ErrorRate, c.ErrorRate))
		}
		for _, m := range exactCounts {
			bv, bok := b.Layers[m.name]
			cv, cok := c.Layers[m.name]
			if !bok || !cok || bv != cv {
				bad = append(bad, fmt.Sprintf("%s: %s %v differs from %v", w.Name, m.name, cv, bv))
			}
		}
		if b.Digest != c.Digest {
			bad = append(bad, fmt.Sprintf("%s: output digest %s differs from %s", w.Name, c.Digest, b.Digest))
		}
	}
	return bad
}
