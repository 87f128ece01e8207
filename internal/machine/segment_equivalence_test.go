package machine

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/microbench"
	"fase/internal/sig"
)

// noWanderScene exercises the segmented render paths randomScene cannot:
// a wander-free regulator (whose constant-load tail renders through the
// fused loop with no per-sample OU draw) and an unspread but
// load-following clock (the p3m-laptop's SDRAM clock class).
func noWanderScene(r *rand.Rand) *emsim.Scene {
	scene := &emsim.Scene{}
	scene.Add(
		&SwitchingRegulator{
			Label:          "quiet reg",
			FSw:            250e3 + r.Float64()*200e3,
			BaseDuty:       0.08 + r.Float64()*0.2,
			DutySwing:      0.03 + r.Float64()*0.05,
			AmpSwing:       r.Float64() * 0.3,
			FundamentalDBm: -110,
			MaxHarmonics:   1 + r.Intn(8),
			LoopBw:         65e3,
			Dom:            activity.DomainMemCtl,
		},
		&SSCClock{
			Label:          "unspread memory clock",
			F0:             0.5e6 + r.Float64()*2e6,
			FundamentalDBm: -112,
			IdleFrac:       0.5,
			MaxHarmonics:   1 + 2*r.Intn(2),
			Dom:            activity.DomainDRAM,
		},
		&emsim.Background{FloorDBmPerHz: -172},
	)
	return scene
}

// TestSegmentedRenderEquivalence is the run-length segmentation's core
// property test: the default render (change-point segmented regulators
// and clocks, blocked refresh impulse train) must be bit-identical to the
// per-sample references (perSampleScene) — across randomized scenes,
// bands, seeds, and activity traces (idle, constant, and alternating at a
// rate that splits every capture into thousands of runs).
func TestSegmentedRenderEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	for trial := 0; trial < 12; trial++ {
		scene := randomScene(r)
		if trial%3 == 0 {
			scene = noWanderScene(r)
		}
		n := 1 << (9 + r.Intn(3)) // 512..2048
		band := emsim.Band{
			Center:     100e3 + r.Float64()*4e6,
			SampleRate: float64(n) * (50 + r.Float64()*200),
		}
		kinds := []activity.Kind{activity.LDM, activity.LDL1, activity.LDL2, activity.Idle}
		traces := []*activity.Trace{
			nil,
			microbench.Constant(kinds[r.Intn(len(kinds))]),
			microbench.Generate(microbench.Config{
				X: kinds[r.Intn(len(kinds))], Y: kinds[r.Intn(len(kinds))],
				FAlt:   30e3 + r.Float64()*20e3,
				Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
			}, 0.5+float64(n)/band.SampleRate),
		}
		for ti, trace := range traces {
			segmentedMatchesPerSample(t, scene, emsim.Capture{
				Band: band, N: n,
				Start:     r.Float64() * 0.2,
				Seed:      r.Int63(),
				Activity:  trace,
				NearField: r.Intn(4) == 0, NearFieldGainDB: 30,
			}, trial*100+ti)
		}
	}
	// Survey sample rates: the campaigns' 6.55 and 65.5 MS/s segments,
	// where the regulators' control loop needs about 600 and 5900
	// samples to settle but an alternation half-period lasts about 75
	// and 756, so the segmented render's head (the fused duty/amplitude/
	// wander pass) runs on every sample.
	for trial, fs := range []float64{6.5536e6, 65.536e6, 6.5536e6, 65.536e6} {
		n := 4096 << (trial / 2) // 4096, 8192: several half-periods
		band := emsim.Band{Center: 1.5 * fs, SampleRate: fs}
		scene := surveyRateScene(t, r, band)
		trace := microbench.Generate(microbench.Config{
			X: activity.LDM, Y: activity.LDL1,
			FAlt:   43.3e3 + r.Float64()*20e3,
			Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
		}, 0.5+float64(n)/fs)
		segmentedMatchesPerSample(t, scene, emsim.Capture{
			Band: band, N: n,
			Start:    r.Float64() * 0.2,
			Seed:     r.Int63(),
			Activity: trace,
		}, 1000+trial)
	}
}

// segmentedMatchesPerSample renders capt through the segmented paths and
// through the per-sample references (perSampleScene) and requires the two
// to agree bit for bit.
func segmentedMatchesPerSample(t *testing.T, scene *emsim.Scene, capt emsim.Capture, trial int) {
	t.Helper()
	want := make([]complex128, capt.N)
	perSampleScene(scene).RenderInto(want, capt)
	got := make([]complex128, capt.N)
	scene.RenderInto(got, capt)
	bitsEqual(t, "segmented render", trial, got, want)
}

// surveyRateScene builds, for a band at a survey sample rate, two
// load-following regulators whose combs reach the band only at high
// harmonic orders — the lowest in-band harmonic is at least 8, so the
// duty and wander power chains open with an Ipow gap — one with OU
// wander and one wander-free with an amplitude swing, plus a
// spread-spectrum clock swept across the band.
func surveyRateScene(t *testing.T, r *rand.Rand, band emsim.Band) *emsim.Scene {
	t.Helper()
	lo, hi := band.Center-band.SampleRate/2, band.Center+band.SampleRate/2
	reg := func(label string, wander, ampSwing float64) *SwitchingRegulator {
		fsw := 250e3 + r.Float64()*200e3
		g := &SwitchingRegulator{
			Label:          label,
			FSw:            fsw,
			BaseDuty:       0.08 + r.Float64()*0.1,
			DutySwing:      0.03 + r.Float64()*0.05,
			AmpSwing:       ampSwing,
			FundamentalDBm: -105,
			// Lines up to 30% into the band: a few dozen harmonics.
			MaxHarmonics: int((lo + 0.3*(hi-lo)) / fsw),
			WanderSigma:  wander,
			WanderTau:    1e-3,
			LoopBw:       65e3 + r.Float64()*25e3,
			Dom:          activity.DomainDRAM,
		}
		lines := g.Carriers(lo, hi)
		if len(lines) == 0 || math.Round(lines[0]/fsw) < 8 {
			t.Fatalf("%s: in-band lines %v at %g Hz spacing, want the lowest at harmonic >= 8", label, lines, fsw)
		}
		return g
	}
	scene := &emsim.Scene{}
	scene.Add(
		reg("wandering reg", 300+r.Float64()*200, r.Float64()*0.3),
		reg("quiet reg", 0, 0.05+r.Float64()*0.3),
		&SSCClock{
			Label:          "spread clock",
			F0:             band.Center,
			SpreadHz:       0.5e6 + r.Float64()*0.5e6,
			RateHz:         32e3,
			Profile:        sig.TriangleSweep{},
			FundamentalDBm: -110,
			IdleFrac:       0.4,
			MaxHarmonics:   1,
			Dom:            activity.DomainDRAM,
		},
		&emsim.Background{FloorDBmPerHz: -172},
	)
	return scene
}
