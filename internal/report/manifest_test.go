package report

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fase/internal/activity"
	"fase/internal/core"
	"fase/internal/machine"
	"fase/internal/obs"
)

// fixedManifest is a fully deterministic manifest for the golden test.
func fixedManifest() *obs.Manifest {
	return &obs.Manifest{
		Schema:      obs.ManifestSchema,
		CreatedUnix: 1700000000,
		Config:      map[string]any{"f1_hz": 250000.0},
		Build:       obs.BuildInfo{Version: "test", GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"},
		Events:      &obs.EventStats{Emitted: 42},
		Histograms: map[string]obs.HistogramSnapshot{
			"fase_specan_render_seconds": {
				Count: 20, Sum: 0.035,
				Bounds: []float64{1e-3, 2e-3, 4e-3},
				Counts: []int64{10, 8, 2, 0},
				P50:    1e-3, P90: 2.5e-3, P99: 3.85e-3,
			},
		},
		Stages: []obs.StageTiming{
			{Name: "sweeps", WallSeconds: 0.0400, CPUSeconds: 0.1200},
			{Name: "smooth", WallSeconds: 0.0010, CPUSeconds: 0.0010},
			{Name: "score", WallSeconds: 0.0020, CPUSeconds: 0.0020},
			{Name: "detect", WallSeconds: 0.0030, CPUSeconds: 0.0030},
		},
		TotalWallSeconds:         0.0500,
		TotalCPUSeconds:          0.1300,
		SimulatedAnalyzerSeconds: 0.1,
		Captures:                 20,
		RenderSeconds:            0.035,
		FFTSeconds:               0.002,
		Planner: obs.PlannerStats{
			PlansBuilt: 1, CacheHits: 19, CacheMisses: 1,
			ComponentsActive: 9, ComponentsSkipped: 20, RenderSkips: 400,
			StaticCacheBytes: 32768,
			Segments:         []obs.SegmentPlan{{CenterHz: 400e3, SampleRate: 409600, Samples: 2048, Active: 9, Skipped: 20}},
		},
		Caches: map[string]obs.CacheStats{
			"fft_plan":        {Hits: 19, Misses: 1, HitRate: 0.95},
			"window":          {Hits: 19, Misses: 1, HitRate: 0.95},
			"bufpool_complex": {Hits: 38, Misses: 2, HitRate: 0.95},
			"bufpool_float":   {Hits: 20, Misses: 5, HitRate: 0.8},
			"specan_plan":     {Hits: 19, Misses: 1, HitRate: 0.95},
		},
		Adaptive: &obs.AdaptiveStats{
			Budget: 12, CapturesUsed: 10, ExhaustiveCaptures: 40,
			ReconCaptures: 4, RefineCaptures: 6,
			ReconFresHz: 1600, Candidates: 3,
			Windows: []obs.AdaptiveWindow{
				{F1Hz: 264e3, F2Hz: 365e3, Priority: 9.8, Outcome: obs.WindowRefined, Captures: 6, ProbeScore: 5.1, Detections: 1},
				{F1Hz: 430e3, F2Hz: 520e3, Priority: 2.3, Outcome: obs.WindowAbandoned, Captures: 2, ProbeScore: 0.9},
				{F1Hz: 600e3, F2Hz: 700e3, Priority: 2.0, Outcome: obs.WindowSkipped},
			},
		},
		Detections: []obs.DetectionRecord{{
			FreqHz: 314.8e3, Score: 6371423, BestHarmonic: 1, Harmonics: []int{1, -1},
			MagnitudeDBm: -103.6, DepthDB: -21.2,
			SubScores: []obs.HarmonicScore{
				{Harmonic: 1, Score: 6371423, Elevated: 5},
				{Harmonic: -1, Score: 123456.7, Elevated: 5},
			},
		}},
	}
}

// TestManifestTablesGolden locks the rendered manifest report against
// testdata/manifest_tables.golden. Regenerate with UPDATE_GOLDEN=1.
func TestManifestTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, tbl := range ManifestTables(fixedManifest()) {
		b.WriteString(FormatTable(tbl))
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "manifest_tables.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendered tables differ from golden file:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestManifestTablesNil(t *testing.T) {
	if ManifestTables(nil) != nil {
		t.Error("nil manifest should render no tables")
	}
}

// TestManifestRoundTrip runs a real (tiny) campaign under an obs.Run,
// writes its manifest to disk, reads it back, and checks that the
// round-tripped manifest validates and renders identical tables.
func TestManifestRoundTrip(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	runner := &core.Runner{Scene: sys.Scene(21, false), Obs: obs.NewRun()}
	_, err = runner.RunE(core.Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := runner.Obs.Manifest()
	if m == nil {
		t.Fatal("instrumented campaign produced no manifest")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestFile(path); err != nil {
		t.Fatalf("written manifest fails validation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	got := ManifestTables(back)
	want := ManifestTables(m)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tables differ after round trip:\ngot  %+v\nwant %+v", got, want)
	}
	if len(got) != 5 {
		t.Fatalf("expected 5 tables (histograms included), got %d", len(got))
	}
}

// TestManifestRoundTripAdaptive is the adaptive-campaign variant: the
// manifest gains the adaptive-plan table and still round-trips cleanly.
func TestManifestRoundTripAdaptive(t *testing.T) {
	sys, err := machine.Lookup("i7-desktop")
	if err != nil {
		t.Fatal(err)
	}
	runner := &core.Runner{Scene: sys.Scene(21, false), Obs: obs.NewRun()}
	_, err = runner.RunE(core.Campaign{
		F1: 0.25e6, F2: 0.55e6, Fres: 200,
		FAlt1: 43.3e3, FDelta: 1e3,
		X: activity.LDM, Y: activity.LDL1, Seed: 21,
		MaxFFT: 2048, Budget: 30, Adaptive: &core.AdaptivePlan{},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := runner.Obs.Manifest()
	if m == nil {
		t.Fatal("instrumented campaign produced no manifest")
	}
	if m.Adaptive == nil {
		t.Fatal("adaptive campaign produced no adaptive stats")
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestFile(path); err != nil {
		t.Fatalf("written manifest fails validation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	got := ManifestTables(back)
	want := ManifestTables(m)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tables differ after round trip:\ngot  %+v\nwant %+v", got, want)
	}
	if len(got) != 6 {
		t.Fatalf("expected 6 tables (histograms and adaptive plan included), got %d", len(got))
	}
}
