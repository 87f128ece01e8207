package specan

import (
	"fmt"
	"math"
	"testing"

	"fase/internal/activity"
	"fase/internal/dsp/spectral"
	"fase/internal/emsim"
	"fase/internal/machine"
	"fase/internal/microbench"
)

// TestSweepEquivalenceCachedStatic extends the equivalence suite to the
// static render cache: a sweep that replays cached activity-independent
// layers must match the uncached, unplanned sweep bit for bit — with a
// cold cache (build + replay in one sweep), a warm cache (second sweep of
// the same request on the same analyzer), serial and parallel, and with a
// fault plan mangling the capture chain after the render. The counter
// checks keep the test honest: the cold sweep must actually build cache
// entries and the warm sweep must serve every capture from them, so a
// regression that quietly disables caching fails here instead of becoming
// a silent perf loss.
func TestSweepEquivalenceCachedStatic(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	req := func(scene *emsim.Scene) Request {
		return Request{
			Scene: scene, F1: 250e3, F2: 750e3, Seed: 17,
			Activity: microbench.Generate(microbench.Config{
				X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
				Jitter: microbench.DefaultJitter(), Seed: 17,
			}, 1.0),
		}
	}
	faults := &emsim.FaultPlan{
		Seed: 99, DropProb: 0.2, TruncProb: 0.2,
		ExtraNoiseDBmPerHz: -165, BurstProb: 0.3,
	}
	// One reference per fault setting, rendered the dumbest way available:
	// unplanned, no cache, serial.
	refFor := func(fp *emsim.FaultPlan) *spectral.Spectrum {
		cfg := Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1, Faults: fp}
		return New(cfg).Sweep(req(unplannedScene(sys.Scene(17, true))))
	}
	refs := map[bool]*spectral.Spectrum{false: refFor(nil), true: refFor(faults)}

	for _, tc := range []struct {
		name    string
		par     int
		noPlan  bool
		faulted bool
	}{
		{"planned serial", 1, false, false},
		{"planned parallel", 4, false, false},
		{"unplanned serial", 1, true, false},
		{"faulted serial", 1, false, true},
		{"faulted parallel", 4, false, true},
	} {
		var fp *emsim.FaultPlan
		if tc.faulted {
			fp = faults
		}
		an := New(Config{
			Fres: 100, MaxFFT: 1 << 14, Parallelism: tc.par,
			ReuseStatic: true, Faults: fp,
		})
		scene := sys.Scene(17, true)
		if tc.noPlan {
			scene = unplannedScene(scene)
		}
		r := req(scene)
		ref := refs[tc.faulted]

		h0, m0 := staticHitsTotal.Value(), staticMissesTotal.Value()
		cold := an.Sweep(r)
		h1, m1 := staticHitsTotal.Value(), staticMissesTotal.Value()
		warm := an.Sweep(r)
		h2, m2 := staticHitsTotal.Value(), staticMissesTotal.Value()

		// Every capture keys its own entry (distinct seed/start), so the
		// cold sweep is all misses and the warm repeat all hits.
		if m1 == m0 {
			t.Fatalf("%s: cold sweep built no static cache entries — test is vacuous", tc.name)
		}
		if h2 == h1 {
			t.Fatalf("%s: warm sweep hit no static cache entries", tc.name)
		}
		if m2 != m1 {
			t.Errorf("%s: warm sweep rebuilt %d static entries, want 0", tc.name, m2-m1)
		}
		_ = h0

		compareSpectraBits(t, tc.name+" cold", cold, ref)
		compareSpectraBits(t, tc.name+" warm", warm, ref)
	}
}

// TestSweepEquivalenceMeteredCache holds a metered analyzer — how the
// adaptive planner runs its recon and refine passes — to the static
// cache's contract: the same sequence of sweeps on one analyzer, with
// the cache on and off, must give bit-identical spectra and charge the
// Meter the same number of captures. The sweeps share their seed and
// differ in activity, as an adaptive batch's ladder sweeps do, so the
// cached analyzer replays layers it built in the first sweep.
func TestSweepEquivalenceMeteredCache(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*activity.Trace, 3)
	for i := range traces {
		traces[i] = microbench.Generate(microbench.Config{
			X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3 + float64(i)*1e3,
			Jitter: microbench.DefaultJitter(), Seed: 21 + int64(i)*104729,
		}, 1.0)
	}
	sweeps := func(reuse bool) ([]*spectral.Spectrum, *Meter) {
		m := NewMeter(1 << 20)
		an := New(Config{Fres: 200, Averages: 2, MaxFFT: 2048, Parallelism: 2,
			ReuseStatic: reuse, Meter: m})
		scene := sys.Scene(21, true)
		var out []*spectral.Spectrum
		for _, tr := range traces {
			if !m.Reserve(an.SweepCaptures(250e3, 550e3)) {
				t.Fatal("reservation refused")
			}
			out = append(out, an.Sweep(Request{Scene: scene, F1: 250e3, F2: 550e3,
				Seed: 21, Activity: tr}))
		}
		return out, m
	}
	live, liveMeter := sweeps(false)
	h0 := staticHitsTotal.Value()
	cached, cachedMeter := sweeps(true)
	if staticHitsTotal.Value() == h0 {
		t.Fatal("the cached analyzer replayed no static layers — test is vacuous")
	}
	for i := range live {
		compareSpectraBits(t, fmt.Sprintf("sweep %d", i), cached[i], live[i])
	}
	if cachedMeter.Used() != liveMeter.Used() || cachedMeter.Reserved() != liveMeter.Reserved() {
		t.Errorf("meter charge cached %d/%d (used/reserved), live %d/%d",
			cachedMeter.Used(), cachedMeter.Reserved(), liveMeter.Used(), liveMeter.Reserved())
	}
	if liveMeter.Used() != liveMeter.Reserved() {
		t.Errorf("live sweeps charged %d captures against %d reserved", liveMeter.Used(), liveMeter.Reserved())
	}
}

// TestSweepEquivalenceCondStaticKeying pins the two-level static cache's keying: two
// requests that share every outer key (same band plan, seeds, geometry)
// but whose window-constant loads differ must build separate conditional
// entries — and each must replay bit-identically against its own
// uncached, unplanned reference. A constant activity trace makes every
// load-following emitter window-constant, so the conditional layer, not
// the unconditional one, carries the difference.
func TestSweepEquivalenceCondStaticKeying(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	ldm := microbench.Constant(activity.LDM)
	ldl1 := microbench.Constant(activity.LDL1)
	// One scene per trace, shared between the analyzer's sweeps: the outer
	// cache key includes the scene identity, so the cross-sweep behaviour
	// under test only shows on repeated sweeps of the same scene.
	scene := sys.Scene(31, true)
	reqA := Request{Scene: scene, F1: 250e3, F2: 750e3, Seed: 31, Activity: ldm}
	reqB := reqA
	reqB.Activity = ldl1
	refFor := func(req Request) *spectral.Spectrum {
		req.Scene = unplannedScene(sys.Scene(31, true))
		return New(Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1}).Sweep(req)
	}
	refA, refB := refFor(reqA), refFor(reqB)

	an := New(Config{Fres: 100, MaxFFT: 1 << 14, Parallelism: 1, ReuseStatic: true})
	m0 := staticMissesTotal.Value()
	coldA := an.Sweep(reqA)
	m1 := staticMissesTotal.Value()
	warmA := an.Sweep(reqA)
	m2 := staticMissesTotal.Value()
	coldB := an.Sweep(reqB)
	m3 := staticMissesTotal.Value()
	warmB := an.Sweep(reqB)
	m4 := staticMissesTotal.Value()

	if m1 == m0 {
		t.Fatal("first LDM sweep built no static entries — test is vacuous")
	}
	if m2 != m1 {
		t.Errorf("repeat LDM sweep rebuilt %d entries, want 0", m2-m1)
	}
	if m3 == m2 {
		t.Error("first LDL1 sweep reused LDM's entries — conditional loads were not keyed")
	}
	if m4 != m3 {
		t.Errorf("repeat LDL1 sweep rebuilt %d entries, want 0", m4-m3)
	}

	compareSpectraBits(t, "LDM cold", coldA, refA)
	compareSpectraBits(t, "LDM warm", warmA, refA)
	compareSpectraBits(t, "LDL1 cold", coldB, refB)
	compareSpectraBits(t, "LDL1 warm", warmB, refB)
}

// TestSurveyCondStaticKeyHoldsCoreRegulator pins where the
// conditional-static cache level earns its keep. In the Fig. 10 surveys
// on the i7 model with the LDM/LDL1 pair, both kinds hold the core
// domain at the same load, so the core supply regulator is
// window-constant in every capture and replays from the conditional
// layer instead of rendering live. A change to activity.LoadOf or to
// DomainConstant that loses this would cost that replay silently (the
// output stays bit-identical either way), so every capture of every
// segment whose plan renders the regulator must key it, at the survey_lf
// (0.1–4 MHz @ 50 Hz) and survey_hf (4–120 MHz @ 500 Hz) geometry.
func TestSurveyCondStaticKeyHoldsCoreRegulator(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	scene := sys.Scene(3, true)
	reg := -1
	for i, c := range scene.Components {
		if g, ok := c.(*machine.SwitchingRegulator); ok && g.Dom == activity.DomainCore {
			reg = i
		}
	}
	if reg < 0 {
		t.Fatal("the i7 scene has no core supply regulator")
	}
	for _, sv := range []struct {
		name         string
		f1, f2, fres float64
	}{
		{"survey_lf", 0.1e6, 4e6, 50},
		{"survey_hf", 4e6, 120e6, 500},
	} {
		an := New(Config{Fres: sv.fres})
		p := an.planSweep(sv.f1, sv.f2)
		tr := microbench.Generate(microbench.Config{
			X: activity.LDM, Y: activity.LDL1, FAlt: 43.3e3,
			Jitter: microbench.DefaultJitter(), Seed: 3,
		}, an.TotalDuration(sv.f1, sv.f2)+0.05)
		keyed := 0
		for s := 0; s < p.segs; s++ {
			_, center, _ := an.segGeom(p, sv.f1, s)
			band := emsim.Band{Center: center, SampleRate: p.fs}
			plan := an.planFor(scene, band, p.nfft)
			if !plan.Active(reg) {
				continue
			}
			for k := 0; k < an.cfg.Averages; k++ {
				capIdx := s*an.cfg.Averages + k
				key := scene.AppendCondStaticKey(nil, emsim.Capture{
					Band: band, Start: float64(capIdx) * an.CaptureDuration(),
					N: p.nfft, Activity: tr, Plan: plan,
				})
				found := false
				for e := 0; e+10 <= len(key); e += 10 {
					found = found || int(key[e])<<8|int(key[e+1]) == reg
				}
				if !found {
					t.Errorf("%s segment %d capture %d: cond-static key %x does not hold the core regulator (component %d)",
						sv.name, s, capIdx, key, reg)
				}
				keyed++
			}
		}
		if keyed == 0 {
			t.Errorf("%s: no segment renders the core regulator — test is vacuous", sv.name)
		}
	}
}

func compareSpectraBits(t *testing.T, name string, s, ref *spectral.Spectrum) {
	t.Helper()
	if s.F0 != ref.F0 || s.Fres != ref.Fres || s.Bins() != ref.Bins() {
		t.Fatalf("%s: geometry %g/%g/%d, want %g/%g/%d",
			name, s.F0, s.Fres, s.Bins(), ref.F0, ref.Fres, ref.Bins())
	}
	for i := range s.PmW {
		if math.Float64bits(s.PmW[i]) != math.Float64bits(ref.PmW[i]) {
			t.Fatalf("%s: bin %d (%.1f Hz) = %x, reference %x",
				name, i, s.Freq(i), math.Float64bits(s.PmW[i]),
				math.Float64bits(ref.PmW[i]))
		}
	}
}
