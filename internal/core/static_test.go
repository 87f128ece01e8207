package core

import (
	"math"
	"slices"
	"testing"

	"fase/internal/activity"
	"fase/internal/machine"
	"fase/internal/obs"
)

// TestCampaignEquivalenceStaticCache runs the same campaign with the
// cross-sweep static render cache on (the default) and off, and
// requires bit-identical measurements and detections. Because every sweep
// of a campaign shares the campaign seed, the cached run builds each
// capture's static layer once and replays it NumAlts times — the counter
// check proves that actually happened, so the equivalence isn't two
// uncached runs agreeing with each other.
func TestCampaignEquivalenceStaticCache(t *testing.T) {
	sys := machine.IntelCoreI7Desktop()
	c := Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	}
	hits := obs.Default.Counter(obs.MetricStaticCacheHits)
	h0 := hits.Value()
	cached, err := (&Runner{Scene: sys.Scene(21, true)}).RunE(c)
	if err != nil {
		t.Fatal(err)
	}
	if hits.Value() == h0 {
		t.Fatal("default campaign replayed no static layers — test is vacuous")
	}
	noReuse := c
	noReuse.noReuse = true
	bare, err := (&Runner{Scene: sys.Scene(21, true)}).RunE(noReuse)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached.Measurements) != len(bare.Measurements) {
		t.Fatalf("measurement count %d cached vs %d uncached", len(cached.Measurements), len(bare.Measurements))
	}
	for i := range bare.Measurements {
		a, b := bare.Measurements[i].Spectrum, cached.Measurements[i].Spectrum
		if a.Bins() != b.Bins() {
			t.Fatalf("measurement %d: %d bins cached vs %d uncached", i, b.Bins(), a.Bins())
		}
		for k := range a.PmW {
			if math.Float64bits(a.PmW[k]) != math.Float64bits(b.PmW[k]) {
				t.Fatalf("measurement %d bin %d differs between cached and uncached runs", i, k)
			}
		}
	}
	if len(cached.Detections) != len(bare.Detections) {
		t.Fatalf("detections: %d cached vs %d uncached", len(cached.Detections), len(bare.Detections))
	}
	for i := range bare.Detections {
		a, b := bare.Detections[i], cached.Detections[i]
		if a.Freq != b.Freq || a.Score != b.Score || a.BestHarmonic != b.BestHarmonic ||
			a.MagnitudeDBm != b.MagnitudeDBm || a.DepthDB != b.DepthDB ||
			!slices.Equal(a.Harmonics, b.Harmonics) {
			t.Fatalf("detection %d differs: %+v vs %+v", i, b, a)
		}
	}
}
