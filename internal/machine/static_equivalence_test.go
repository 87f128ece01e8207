package machine

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fase/internal/activity"
	"fase/internal/emsim"
	"fase/internal/microbench"
)

// bitsEqual compares two renders sample for sample at the bit level.
func bitsEqual(t *testing.T, tag string, trial int, got, want []complex128) {
	t.Helper()
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s trial %d: sample %d differs: got %v, want %v",
				tag, trial, i, got[i], want[i])
		}
	}
}

// TestStaticLayerRenderEquivalence is the static cache's core property
// test: replaying a capture's cached activity-independent layer must be
// bit-identical to rendering every component live — across randomized
// scenes, with and without a render plan, and (the point of the cache)
// across different activity traces sharing one static set.
func TestStaticLayerRenderEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1851))
	cached := 0
	for trial := 0; trial < 10; trial++ {
		scene := randomScene(r)
		n := 1 << (9 + r.Intn(3)) // 512..2048
		band := emsim.Band{
			Center:     100e3 + r.Float64()*4e6,
			SampleRate: float64(n) * (50 + r.Float64()*200),
		}
		capt := emsim.Capture{
			Band: band, N: n,
			Start:     r.Float64() * 0.2,
			Seed:      r.Int63(),
			NearField: r.Intn(4) == 0, NearFieldGainDB: 30,
		}
		kinds := []activity.Kind{activity.LDM, activity.LDL1, activity.LDL2}
		traces := []*activity.Trace{nil, microbench.Generate(microbench.Config{
			X: kinds[r.Intn(len(kinds))], Y: kinds[r.Intn(len(kinds))],
			FAlt:   30e3 + r.Float64()*20e3,
			Jitter: microbench.DefaultJitter(), Seed: r.Int63(),
		}, 0.5+float64(n)/band.SampleRate)}

		plan := scene.Plan(band, n)
		for _, withPlan := range []bool{false, true} {
			base := capt
			if withPlan {
				base.Plan = plan
			}
			// One static set serves every capture whose conditional-static
			// key matches — the unconditional layer always does, and the
			// conditional layer only when the window-constant loads agree.
			// Captures keying differently rebuild, mirroring the analyzer's
			// two-level cache.
			sets := map[string]*emsim.StaticSet{}
			for ti, trace := range traces {
				build := base
				build.Activity = trace
				key := string(scene.AppendCondStaticKey(nil, build))
				static, ok := sets[key]
				if !ok {
					static = scene.BuildStaticSet(build)
					sets[key] = static
					if static != nil {
						cached += static.Components()
					}
				}
				if static == nil {
					continue
				}
				live, replayed := build, build
				replayed.Static = static
				want := make([]complex128, n)
				scene.RenderInto(want, live)
				got := make([]complex128, n)
				scene.RenderInto(got, replayed)
				bitsEqual(t, "static replay", trial*100+ti, got, want)
			}
		}
	}
	if cached == 0 {
		t.Fatal("no component was ever cached; the equivalence test is vacuous")
	}
}

// TestStaticClassification pins which emitters may enter the static layer
// and on what terms: activity-modulated sources must never classify
// activity-independent (they may join the layer only conditionally, through
// their own power domain), while clocks whose envelope cannot move always
// do.
func TestStaticClassification(t *testing.T) {
	band := emsim.Band{Center: 300e3, SampleRate: 600e3}
	classify := func(c emsim.Component) (activity.Domain, bool) {
		sr, ok := c.(emsim.StaticRenderer)
		if !ok {
			return activity.DomainNone, false
		}
		return sr.StaticDomain(band, 512)
	}
	reg := &SwitchingRegulator{FSw: 315e3, MaxHarmonics: 4, Dom: activity.DomainDRAM}
	if d, ok := classify(reg); !ok || d != activity.DomainDRAM {
		t.Errorf("SwitchingRegulator static = (%v, %v), want conditional on its domain (dram, true)", d, ok)
	}
	if _, ok := emsim.Component(&RefreshEmitter{}).(emsim.StaticRenderer); ok {
		t.Error("RefreshEmitter must not classify static (activity-disrupted timing)")
	}
	clk := &UnmodulatedClock{F0: 100e3, MaxHarmonics: 5}
	if d, ok := classify(clk); !ok || d != activity.DomainNone {
		t.Errorf("UnmodulatedClock static = (%v, %v), want activity-independent (none, true)", d, ok)
	}
	modulated := &SSCClock{F0: 300e3, MaxHarmonics: 1, IdleFrac: 0.4, Dom: activity.DomainDRAM}
	if d, ok := classify(modulated); !ok || d != activity.DomainDRAM {
		t.Errorf("activity-modulated SSCClock static = (%v, %v), want conditional on its domain (dram, true)", d, ok)
	}
	decoy := &SSCClock{F0: 300e3, MaxHarmonics: 1, IdleFrac: 0.4, Dom: activity.DomainNone}
	if d, ok := classify(decoy); !ok || d != activity.DomainNone {
		t.Errorf("DomainNone SSCClock static = (%v, %v), want (none, true)", d, ok)
	}
	idle := &SSCClock{F0: 300e3, MaxHarmonics: 1, IdleFrac: 1, Dom: activity.DomainDRAM}
	if d, ok := classify(idle); !ok || d != activity.DomainNone {
		t.Errorf("IdleFrac=1 SSCClock static = (%v, %v), want (none, true)", d, ok)
	}
}

// TestStaticSetHoldsOneStream pins the static set's memory: however many
// in-band lines the static comb adds per sample, the set holds the summed
// layer as one n-sample stream, not one stream per line.
func TestStaticSetHoldsOneStream(t *testing.T) {
	const n = 1 << 13
	band := emsim.Band{Center: 1e6, SampleRate: 2e6}
	clk := &UnmodulatedClock{Label: "comb", F0: 100e3, MaxHarmonics: 19, FundamentalDBm: -60}
	scene := &emsim.Scene{}
	scene.Add(clk)
	if lines := len(clk.Carriers(band.Center-band.SampleRate/2, band.Center+band.SampleRate/2)); lines < 5 {
		t.Fatalf("comb has %d in-band lines; the test needs several", lines)
	}
	capt := emsim.Capture{Band: band, N: n, Seed: 5, Plan: scene.Plan(band, n)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := scene.BuildStaticSet(capt)
	runtime.ReadMemStats(&after)
	if st == nil || st.Components() != 1 {
		t.Fatal("the clock did not enter the static set")
	}
	stream := uint64(n * 16)
	if got := after.TotalAlloc - before.TotalAlloc; got < stream || got >= 2*stream {
		t.Errorf("building the set allocated %d bytes, want one %d-byte stream", got, stream)
	}
	want := scene.Render(capt)
	got := make([]complex128, n)
	capt.Static = st
	scene.RenderInto(got, capt)
	bitsEqual(t, "one-stream replay", 0, got, want)
}
