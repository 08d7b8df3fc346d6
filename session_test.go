package ctms_test

import (
	"strings"
	"testing"
	"time"

	ctms "repro"
)

func addStreams(t *testing.T, s *ctms.Session, n int) []ctms.Admission {
	t.Helper()
	classes := []ctms.StreamClass{ctms.ClassBackground, ctms.ClassStandard, ctms.ClassInteractive}
	out := make([]ctms.Admission, n)
	for i := range out {
		adm, err := s.Add(ctms.StreamSpec{
			PacketBytes: 500,
			Interval:    12 * time.Millisecond,
			Class:       classes[i%3],
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = adm
	}
	return out
}

func TestPublicSessionAdmits(t *testing.T) {
	s, err := ctms.NewSession(ctms.SessionOptions{
		Name:           "public-knee",
		Seed:           1991,
		Duration:       10 * time.Second,
		BackgroundUtil: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	adms := addStreams(t, s, 12)
	// ≈347 kbit/s per stream against a 3.4 Mbit/s budget: the verdicts
	// must flip from admitted to rejected at the knee, eagerly, before
	// the simulation ever runs.
	knee := 0
	for i, adm := range adms {
		if adm.Admitted {
			if i != knee {
				t.Fatalf("admissions not first-come-first-reserved: %d admitted after a rejection", i)
			}
			knee++
			if adm.ReservedBits == 0 {
				t.Fatalf("admitted stream %d reserved nothing", i)
			}
		} else if !strings.Contains(adm.Reason, "bits/s") {
			t.Fatalf("rejection %d without accounting: %q", i, adm.Reason)
		}
	}
	if knee < 6 || knee > 11 {
		t.Fatalf("knee out of range: %d", knee)
	}

	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != knee || res.Rejected != 12-knee {
		t.Fatalf("run disagrees with Add verdicts: %d/%d vs knee %d", res.Admitted, res.Rejected, knee)
	}
	for i, st := range res.Streams {
		if st.Admission != adms[i] {
			t.Fatalf("stream %d: Add said %+v, Run said %+v", i, adms[i], st.Admission)
		}
	}
	if g := res.WorstAdmittedGlitchRate(); g > 1.0 {
		t.Fatalf("admitted streams must stay glitch-bounded: %.2f/min\n%s", g, res.Report)
	}
	if !strings.Contains(res.Report, "REJECTED") {
		t.Fatalf("report should show rejections:\n%s", res.Report)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run must fail")
	}
	if _, err := s.Add(ctms.StreamSpec{PacketBytes: 500, Interval: 12 * time.Millisecond}); err == nil {
		t.Fatal("Add after Run must fail")
	}
}

// TestPublicSessionAddMatchesRunOn16Mbit checks that Add's eager
// controller applies Run's defaults: on a 16 Mbit/s ring with the
// utilization cap left at zero (the default), every verdict Add returned
// is the decision Run replays, and the knee sits where the 16 Mbit/s
// budget puts it rather than at the 4 Mbit/s ring's.
func TestPublicSessionAddMatchesRunOn16Mbit(t *testing.T) {
	s, err := ctms.NewSession(ctms.SessionOptions{
		Name:           "16mbit",
		Seed:           1991,
		Duration:       time.Second,
		RingBitRate:    16_000_000,
		BackgroundUtil: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	adms := addStreams(t, s, 48)
	admitted := 0
	for _, adm := range adms {
		if adm.Admitted {
			admitted++
		}
	}
	// 0.90×16M − 0.05×16M = 13.6 Mbit/s at ≈347 kbit/s per stream.
	if admitted < 36 || admitted == len(adms) {
		t.Fatalf("16 Mbit/s knee out of range: %d of %d admitted", admitted, len(adms))
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range res.Streams {
		if st.Admission != adms[i] {
			t.Fatalf("stream %d: Add said %+v, Run said %+v", i, adms[i], st.Admission)
		}
	}
}

func TestPublicSessionValidation(t *testing.T) {
	if _, err := ctms.NewSession(ctms.SessionOptions{}); err == nil {
		t.Fatal("zero duration must fail")
	}
	if _, err := ctms.NewSession(ctms.SessionOptions{Duration: time.Second, UtilizationCap: 2}); err == nil {
		t.Fatal("cap > 1 must fail")
	}
	s, err := ctms.NewSession(ctms.SessionOptions{Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(ctms.StreamSpec{PacketBytes: 500, Interval: 12 * time.Millisecond, Class: "premium"}); err == nil {
		t.Fatal("unknown class must fail")
	} else if !strings.Contains(err.Error(), `"background"`) || !strings.Contains(err.Error(), `"interactive"`) {
		t.Fatalf("class error must list valid values: %v", err)
	}
	if _, err := s.Add(ctms.StreamSpec{PacketBytes: 0, Interval: 12 * time.Millisecond}); err == nil {
		t.Fatal("bad packet size must fail")
	}
}
