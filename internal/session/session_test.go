package session

import (
	"fmt"
	"testing"

	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/workload"
)

// specN builds n identical 500-byte/12 ms streams (≈347 kbit/s on the
// wire each) with classes rotating background/standard/interactive.
func specN(n int) []StreamSpec {
	specs := make([]StreamSpec, n)
	for i := range specs {
		specs[i] = StreamSpec{
			Name:        fmt.Sprintf("s%02d", i),
			PacketBytes: 500,
			Interval:    12 * sim.Millisecond,
			Class:       Class(i % 3),
		}
	}
	return specs
}

func TestSessionAdmissionKnee(t *testing.T) {
	cfg := Config{
		Name:           "knee",
		Seed:           1991,
		Duration:       20 * sim.Second,
		BackgroundUtil: 0.05,
		Streams:        specN(16),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted == 0 || res.Rejected == 0 {
		t.Fatalf("expected a knee: admitted=%d rejected=%d", res.Admitted, res.Rejected)
	}
	// Budget: 0.90×4M − 0.05×4M = 3.4 Mbit/s; each stream needs ≈347 kbit/s.
	if res.Admitted < 6 || res.Admitted > 12 {
		t.Fatalf("knee out of range: %d admitted", res.Admitted)
	}
	// Admission is first-come-first-reserved: the first K admitted, the
	// rest rejected with a reason.
	for i, s := range res.Streams {
		wantAdmitted := i < res.Admitted
		if s.Decision.Admitted != wantAdmitted {
			t.Fatalf("stream %d admission: %+v", i, s.Decision)
		}
		if !s.Decision.Admitted && s.Decision.Reason == "" {
			t.Fatalf("stream %d rejected without reason", i)
		}
		if s.Decision.Admitted && s.Sent == 0 {
			t.Fatalf("admitted stream %d never sent", i)
		}
		if !s.Decision.Admitted && s.Sent != 0 {
			t.Fatalf("rejected stream %d sent packets", i)
		}
	}
	// The guarantee the admission controller exists to honor.
	if g := res.WorstAdmittedGlitchRate(); g > 1.0 {
		t.Fatalf("admitted streams must stay glitch-bounded: %.2f/min\n%s", g, res.Report())
	}
	if res.ShedN != 0 {
		t.Fatalf("no purge, no shedding: %d", res.ShedN)
	}
	if res.ReservedBitsEnd == 0 {
		t.Fatal("ring should report reserved bandwidth")
	}
}

func TestSessionDeterminism(t *testing.T) {
	cfg := Config{
		Name:             "det",
		Seed:             7,
		Duration:         10 * sim.Second,
		BackgroundUtil:   0.05,
		ForceInsertionAt: 4 * sim.Second,
		Streams:          specN(12),
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("same config, different results:\n--- a\n%s--- b\n%s", a.Report(), b.Report())
	}
}

func TestSessionShedsLowestClassOnInsertion(t *testing.T) {
	cfg := Config{
		Name:             "degrade",
		Seed:             1991,
		Duration:         20 * sim.Second,
		BackgroundUtil:   0.05,
		ForceInsertionAt: 8 * sim.Second,
		PlayoutPrebuffer: 130 * sim.Millisecond,
		Streams:          specN(16),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedN == 0 {
		t.Fatalf("a 10-purge insertion at a full ring must shed:\n%s", res.Report())
	}
	// Shed order honors class: no higher-class stream shed while a
	// lower-class one survived.
	minSurvivor := ClassInteractive
	maxShed := ClassBackground
	for _, s := range res.Streams {
		if !s.Decision.Admitted {
			continue
		}
		if s.Shed {
			if s.Spec.Class > maxShed {
				maxShed = s.Spec.Class
			}
			if s.ShedAt < cfg.ForceInsertionAt {
				t.Fatalf("stream shed before the insertion: %+v", s)
			}
		} else if s.Spec.Class < minSurvivor {
			minSurvivor = s.Spec.Class
		}
	}
	if res.ShedN < res.Admitted && maxShed > minSurvivor {
		t.Fatalf("shed class %v while class %v survived:\n%s", maxShed, minSurvivor, res.Report())
	}
	// Survivors ride out the outage within the bigger prebuffer.
	if g := res.WorstAdmittedGlitchRate(); g > 3.0 {
		t.Fatalf("survivors glitched too much: %.2f/min\n%s", g, res.Report())
	}
}

// TestSessionStructuredTrace wires a trace into a shedding run and checks
// the structured stream: admissions and rejections recorded at t=0, purges
// and sheds after the forced insertion, all without any per-event
// formatting on the run's hot path.
func TestSessionStructuredTrace(t *testing.T) {
	tr := sim.NewTrace(1 << 16)
	cfg := Config{
		Name:             "traced",
		Seed:             1991,
		Duration:         20 * sim.Second,
		BackgroundUtil:   0.05,
		ForceInsertionAt: 8 * sim.Second,
		PlayoutPrebuffer: 130 * sim.Millisecond,
		Trace:            tr,
		Streams:          specN(16),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	admits := tr.EventsOfKind(EvAdmit)
	rejects := tr.EventsOfKind(EvReject)
	sheds := tr.EventsOfKind(EvShed)
	if len(admits) != res.Admitted || len(rejects) != res.Rejected || len(sheds) != res.ShedN {
		t.Fatalf("trace disagrees with results: admits %d/%d rejects %d/%d sheds %d/%d",
			len(admits), res.Admitted, len(rejects), res.Rejected, len(sheds), res.ShedN)
	}
	for _, e := range admits {
		if e.T != 0 || e.B <= 0 {
			t.Fatalf("admission event should carry t=0 and reserved bits: %+v", e)
		}
	}
	for _, e := range sheds {
		if e.T < cfg.ForceInsertionAt {
			t.Fatalf("shed event before the insertion: %+v", e)
		}
	}
	// The forced insertion's purge burst must appear via the ring's kinds.
	if purges := tr.EventsOfKind(ring.EvPurge); len(purges) == 0 {
		t.Fatal("insertion run recorded no ring purges")
	}
	if ins := tr.EventsOfKind(ring.EvInsertion); len(ins) != 1 {
		t.Fatalf("want exactly 1 insertion event, got %d", len(ins))
	}
}

// A trace must not perturb the simulation: identical Results with and
// without one attached (observation is read-only).
func TestSessionTraceDoesNotPerturb(t *testing.T) {
	cfg := Config{
		Name:             "det",
		Seed:             7,
		Duration:         10 * sim.Second,
		BackgroundUtil:   0.05,
		ForceInsertionAt: 4 * sim.Second,
		Streams:          specN(12),
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = sim.NewTrace(1 << 16)
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Report() != traced.Report() {
		t.Fatalf("attaching a trace changed the run:\n--- plain\n%s--- traced\n%s", plain.Report(), traced.Report())
	}
}

func TestSessionFreeForAllDegradesEveryone(t *testing.T) {
	with := Config{
		Name:           "admitted",
		Seed:           1991,
		Duration:       20 * sim.Second,
		BackgroundUtil: 0.05,
		Streams:        specN(16),
	}
	without := with
	without.Name = "free-for-all"
	without.DisableAdmission = true

	ra, err := Run(with)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Admitted != 16 || rf.Rejected != 0 {
		t.Fatalf("free-for-all must run everything: %d/%d", rf.Admitted, rf.Rejected)
	}
	// Nothing is shed without admission, so every stream's bits stay
	// booked to the end.
	var offered int64
	for _, s := range rf.Streams {
		offered += s.Spec.OfferedBits()
	}
	if rf.ReservedBitsEnd != offered {
		t.Fatalf("free-for-all ends with %d bits reserved, want all %d offered", rf.ReservedBitsEnd, offered)
	}
	// 16×347k ≈ 5.6 Mbit/s offered on a 4 Mbit/s ring: the losers of the
	// free-for-all cannot win the token, so their playout buffers drain
	// once and stay empty — they starve for most of the run, where the
	// admission-controlled session kept every admitted stream fed.
	ga, gf := ra.WorstAdmittedStarvedFraction(), rf.WorstAdmittedStarvedFraction()
	if ga > 0.01 {
		t.Fatalf("admission-controlled run starved: %.2f%%\n%s", 100*ga, ra.Report())
	}
	if gf < 0.5 {
		t.Fatalf("free-for-all should starve its losers: worst %.2f%% vs %.2f%%\n%s", 100*gf, 100*ga, rf.Report())
	}
}

func TestSessionValidate(t *testing.T) {
	good := Config{Duration: sim.Second, Streams: specN(1)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Streams: specN(1)},    // no duration
		{Duration: sim.Second}, // no streams
		{Duration: sim.Second, Streams: specN(1), UtilizationCap: 1.5},
		{Duration: sim.Second, Streams: specN(1), BackgroundUtil: 1.0},
		{Duration: sim.Second, Streams: []StreamSpec{{PacketBytes: 4, Interval: sim.Millisecond}}},
		{Duration: sim.Second, Streams: []StreamSpec{{PacketBytes: 500}}},
		{Duration: sim.Second, Streams: []StreamSpec{{PacketBytes: 500, Interval: sim.Millisecond, Class: Class(9)}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d must fail validation", i)
		}
	}
}

// popConfig is a small churning population: enough offered load that the
// budget fills up and later arrivals get rejected, plus a storm.
func popConfig() Config {
	return Config{
		Name:           "pop",
		Seed:           1991,
		Duration:       8 * sim.Second,
		BackgroundUtil: 0.05,
		Population: &workload.PopulationSpec{
			ArrivalsPerSec:  6,
			ZipfSkew:        1.1,
			Titles:          16,
			ChurnHalfLife:   2 * sim.Second,
			StormAt:         4 * sim.Second,
			StormInsertions: 2,
		},
	}
}

func TestSessionPopulationChurn(t *testing.T) {
	res, err := Run(popConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Streams) < 20 {
		t.Fatalf("only %d population arrivals", len(res.Streams))
	}
	if res.Admitted == 0 {
		t.Fatal("no population stream admitted")
	}
	if res.Rejected == 0 {
		t.Fatal("offered load never exceeded the budget")
	}
	if res.Departed == 0 {
		t.Fatal("no churn departures in 8 s with a 2 s half-life")
	}
	if res.PlayoutLatency == nil || res.PlayoutLatency.N() == 0 {
		t.Fatal("population run recorded no playout-latency samples")
	}
	for i, s := range res.Streams {
		if !s.Arrived {
			t.Fatalf("stream %d not marked as a population arrival", i)
		}
		if s.Title < 0 || s.Title >= 16 {
			t.Fatalf("stream %d title %d out of range", i, s.Title)
		}
		if s.Departed {
			if !s.Decision.Admitted || s.Shed {
				t.Fatalf("stream %d departed but admitted=%v shed=%v",
					i, s.Decision.Admitted, s.Shed)
			}
			if s.DepartedAt <= s.ArrivedAt {
				t.Fatalf("stream %d departed at %v before arriving at %v",
					i, s.DepartedAt, s.ArrivedAt)
			}
			if s.ActiveTime != s.DepartedAt-s.ArrivedAt {
				t.Fatalf("stream %d active time %v, want %v",
					i, s.ActiveTime, s.DepartedAt-s.ArrivedAt)
			}
		}
		if s.Decision.Admitted && s.ActiveTime > 0 && s.Sent == 0 &&
			s.ActiveTime > 100*sim.Millisecond {
			t.Fatalf("admitted stream %d ran %v but never sent", i, s.ActiveTime)
		}
	}
	// Departures release budget: the end-of-run reservation must be less
	// than the sum ever admitted.
	var admittedBits int64
	for _, s := range res.Streams {
		if s.Decision.Admitted {
			admittedBits += s.Spec.OfferedBits()
		}
	}
	if res.ReservedBitsEnd >= admittedBits {
		t.Fatalf("departures released nothing: reserved %d of %d admitted bits",
			res.ReservedBitsEnd, admittedBits)
	}
}

func TestSessionPopulationDeterminism(t *testing.T) {
	a, err := Run(popConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(popConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("same population config, different results:\n--- a\n%s--- b\n%s",
			a.Report(), b.Report())
	}
	if a.PlayoutLatency.String() != b.PlayoutLatency.String() {
		t.Fatal("same population config, different latency histograms")
	}
}
