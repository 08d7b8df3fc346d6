package ctms_test

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	ctms "repro"
	"repro/internal/golden"
)

// TestOptionsJSONGolden pins the scenario-file format: Test Case B
// marshals to exactly testdata/options.golden.json, and that file parses
// back to exactly Test Case B. Re-pin with `make goldens`.
func TestOptionsJSONGolden(t *testing.T) {
	opts := ctms.TestCaseB()
	got, err := json.MarshalIndent(opts, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden.Check(t, filepath.Join("testdata", "options.golden.json"), got)

	var back ctms.Options
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != opts {
		t.Fatalf("golden does not round-trip:\n got %+v\nwant %+v", back, opts)
	}
}

func TestOptionsJSONFlexibleDurations(t *testing.T) {
	var o ctms.Options
	doc := []byte(`{"duration": "2m", "interval": 12000000, "packet_bytes": 2000}`)
	if err := json.Unmarshal(doc, &o); err != nil {
		t.Fatal(err)
	}
	if o.Duration != 2*time.Minute || o.Interval != 12*time.Millisecond {
		t.Fatalf("durations: %v / %v", o.Duration, o.Interval)
	}
	if err := json.Unmarshal([]byte(`{"duration": "2 parsecs"}`), &o); err == nil {
		t.Fatal("bad duration string must fail")
	}
	if err := json.Unmarshal([]byte(`{"duration": true}`), &o); err == nil {
		t.Fatal("non-string non-number duration must fail")
	}
	if err := json.Unmarshal([]byte(`{"durration": "2m"}`), &o); err == nil {
		t.Fatal("unknown field must fail")
	}
}

func TestLoadScenarios(t *testing.T) {
	one, err := json.Marshal(ctms.TestCaseA())
	if err != nil {
		t.Fatal(err)
	}
	single, err := ctms.LoadScenarios(one)
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != 1 || single[0] != ctms.TestCaseA() {
		t.Fatalf("single scenario: %+v", single)
	}

	arr, err := json.Marshal([]ctms.Options{ctms.TestCaseA(), ctms.TestCaseB()})
	if err != nil {
		t.Fatal(err)
	}
	many, err := ctms.LoadScenarios(arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 2 || many[1] != ctms.TestCaseB() {
		t.Fatalf("scenario array: %+v", many)
	}

	bad := ctms.TestCaseA()
	bad.Protocol = "carrier-pigeon"
	badDoc, err := json.Marshal([]ctms.Options{ctms.TestCaseA(), bad})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctms.LoadScenarios(badDoc); err == nil {
		t.Fatal("invalid scenario in an array must fail the whole file")
	}
	if _, err := ctms.LoadScenarios([]byte(`[]`)); err == nil {
		t.Fatal("empty scenario file must fail")
	}
}

// TestResultMarshals pins that the public Result (histograms included)
// serializes cleanly, so scenario runners can archive runs as JSON.
func TestResultMarshals(t *testing.T) {
	opts := ctms.TestCaseA()
	opts.Duration = 5 * time.Second
	res, err := ctms.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back["Name"] != "test-case-A" || back["Sent"].(float64) == 0 {
		t.Fatalf("marshaled result lost its accounting: %v %v", back["Name"], back["Sent"])
	}
}
