package ctms_test

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	ctms "repro"
	"repro/internal/golden"
)

// populationScenario is the canonical population session the golden file
// pins: every knob set, including a custom codec mix and diurnal curve.
func populationScenario() ctms.SessionOptions {
	return ctms.SessionOptions{
		Name:           "evening-load",
		Seed:           1991,
		Duration:       12 * time.Second,
		BackgroundUtil: 0.05,
		Population: &ctms.PopulationSpec{
			ArrivalsPerSec: 16,
			ZipfSkew:       1.1,
			Titles:         32,
			ChurnHalfLife:  3 * time.Second,
			Classes: []ctms.CodecClass{
				{Name: "playback", PacketBytes: 500, Interval: 12 * time.Millisecond,
					Class: ctms.ClassStandard, Weight: 0.7},
				{Name: "voice", PacketBytes: 200, Interval: 12 * time.Millisecond,
					Class: ctms.ClassInteractive, Weight: 0.2},
				{Name: "prefetch", PacketBytes: 1000, Interval: 24 * time.Millisecond,
					Class: ctms.ClassBackground, Weight: 0.1},
			},
			Diurnal:         []float64{0.5, 1.0, 1.8, 1.2},
			StormAt:         6 * time.Second,
			StormInsertions: 2,
			MaxStreams:      5000,
		},
	}
}

// TestSessionJSONGolden pins the session scenario format: the canonical
// population scenario marshals to exactly testdata/population.golden.json
// and that file parses back to the same struct. Re-pin with
// `make goldens`.
func TestSessionJSONGolden(t *testing.T) {
	opts := populationScenario()
	got, err := json.MarshalIndent(opts, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden.Check(t, filepath.Join("testdata", "population.golden.json"), got)

	var back ctms.SessionOptions
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, opts) {
		t.Fatalf("golden does not round-trip:\n got %+v\nwant %+v", back, opts)
	}
}

func TestSessionJSONRejectsUnknownFields(t *testing.T) {
	var o ctms.SessionOptions
	cases := []string{
		`{"durration": "2m"}`,
		`{"population": {"arrivals_per_second": 4}}`,
		`{"population": {"arrivals_per_sec": 4, "classes": [{"pakcet_bytes": 500}]}}`,
	}
	for _, doc := range cases {
		if err := json.Unmarshal([]byte(doc), &o); err == nil {
			t.Errorf("unknown field accepted: %s", doc)
		}
	}
	ok := `{"duration": "5s", "population": {"arrivals_per_sec": 4, "zipf_skew": 1.0}}`
	if err := json.Unmarshal([]byte(ok), &o); err != nil {
		t.Fatal(err)
	}
	if o.Population == nil || o.Population.ArrivalsPerSec != 4 {
		t.Fatalf("population not parsed: %+v", o.Population)
	}
}

func TestLoadSessionScenarios(t *testing.T) {
	doc, err := json.Marshal([]ctms.SessionOptions{populationScenario()})
	if err != nil {
		t.Fatal(err)
	}
	many, err := ctms.LoadSessionScenarios(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 1 || !reflect.DeepEqual(many[0], populationScenario()) {
		t.Fatalf("scenario array: %+v", many)
	}

	// An unknown class spelling must fail validation with the valid
	// spellings listed — the enum-style error the scenario format
	// promises.
	bad := populationScenario()
	bad.Population.Classes[0].Class = "platinum"
	badDoc, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctms.LoadSessionScenarios(badDoc)
	if err == nil {
		t.Fatal("unknown class spelling must fail the file")
	}
	for _, want := range []string{"platinum", "background", "standard", "interactive"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not spell out %q", err, want)
		}
	}

	// Range mistakes fail the whole file too.
	neg := populationScenario()
	neg.Population.ZipfSkew = -1
	negDoc, err := json.Marshal([]ctms.SessionOptions{populationScenario(), neg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctms.LoadSessionScenarios(negDoc); err == nil {
		t.Fatal("invalid scenario in an array must fail the whole file")
	}
	if _, err := ctms.LoadSessionScenarios([]byte(`[]`)); err == nil {
		t.Fatal("empty scenario file must fail")
	}
}

// TestSessionPopulationEndToEnd drives the public API the way a scenario
// runner would: a population session runs, produces churn accounting and
// latency quantiles, and repeats bit-identically.
func TestSessionPopulationEndToEnd(t *testing.T) {
	run := func() *ctms.SessionResult {
		opts := ctms.SessionOptions{
			Name:           "pop-e2e",
			Seed:           7,
			Duration:       6 * time.Second,
			BackgroundUtil: 0.05,
			Population: &ctms.PopulationSpec{
				ArrivalsPerSec: 8,
				ZipfSkew:       1.2,
				Titles:         16,
				ChurnHalfLife:  2 * time.Second,
			},
		}
		s, err := ctms.NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Admitted == 0 || res.Departed == 0 {
		t.Fatalf("no churn: %d admitted, %d departed", res.Admitted, res.Departed)
	}
	if res.PlayoutLatencyP99 <= 0 || res.PlayoutLatencyP999 < res.PlayoutLatencyP99 {
		t.Fatalf("latency quantiles: p99=%v p999=%v", res.PlayoutLatencyP99, res.PlayoutLatencyP999)
	}
	arrived := 0
	for _, st := range res.Streams {
		if st.Arrived {
			arrived++
		}
	}
	if arrived != len(res.Streams) {
		t.Fatalf("%d of %d streams marked arrived", arrived, len(res.Streams))
	}
	if again := run(); again.Report != res.Report {
		t.Fatal("population session not deterministic across runs")
	}
}
