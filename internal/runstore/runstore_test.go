package runstore

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fase/internal/obs"
)

// storeManifest is a minimal but valid manifest for store tests; config
// and created time vary per run.
func storeManifest(created int64, config map[string]any) *obs.Manifest {
	return &obs.Manifest{
		Schema:           obs.ManifestSchema,
		CreatedUnix:      created,
		Config:           config,
		Build:            obs.BuildInfo{Version: "test", GoVersion: "go1.24.0", OS: "linux", Arch: "amd64"},
		Stages:           []obs.StageTiming{{Name: "sweeps", WallSeconds: 0.5, CPUSeconds: 0.5}},
		TotalWallSeconds: 0.5, TotalCPUSeconds: 0.5,
		Captures: 10,
		Caches: map[string]obs.CacheStats{
			"fft_plan": {Hits: 9, Misses: 1, HitRate: 0.9}, "rfft_plan": {},
			"window": {}, "bufpool_complex": {}, "bufpool_float": {},
			"specan_plan": {}, "render_static": {},
		},
		Detections: []obs.DetectionRecord{{
			FreqHz: 315e3, Score: 100, BestHarmonic: 1,
			SubScores: []obs.HarmonicScore{{Harmonic: 1, Score: 100, Elevated: 5}},
		}},
	}
}

func TestConfigIDCanonicalization(t *testing.T) {
	// A struct-typed config and its file-round-tripped map form must hash
	// identically — that is what makes archive ids stable across processes.
	type cfg struct {
		F1   float64 `json:"f1_hz"`
		Seed int64   `json:"seed"`
	}
	a, err := ConfigID(cfg{F1: 250e3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConfigID(map[string]any{"seed": 21.0, "f1_hz": 250000.0})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || len(a) != IDLen {
		t.Fatalf("ids differ: %q vs %q", a, b)
	}
	c, err := ConfigID(cfg{F1: 250e3, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seeds must produce different ids")
	}
}

func TestStoreAddListResolve(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := storeManifest(100, map[string]any{"seed": 1.0})
	m2 := storeManifest(200, map[string]any{"seed": 2.0})
	e1, err := s.Add(m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Add(m2)
	if err != nil {
		t.Fatal(err)
	}
	if e1.ID == e2.ID {
		t.Fatal("distinct configs collided")
	}

	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].ID != e2.ID || entries[1].ID != e1.ID {
		t.Fatalf("list not newest-first: %+v", entries)
	}

	// @N references.
	if _, id, err := s.Resolve("@0"); err != nil || id != e2.ID {
		t.Errorf("@0 -> %q, %v; want %q", id, err, e2.ID)
	}
	if _, id, err := s.Resolve("@1"); err != nil || id != e1.ID {
		t.Errorf("@1 -> %q, %v; want %q", id, err, e1.ID)
	}
	if _, _, err := s.Resolve("@2"); err == nil {
		t.Error("@2 must fail on a two-run store")
	}
	if _, _, err := s.Resolve("@-1"); err == nil {
		t.Error("@-1 must be rejected")
	}

	// Unique id prefix; full id; missing; ambiguous is hard to force with
	// random hashes, so cover the miss path instead.
	if _, id, err := s.Resolve(e1.ID[:6]); err != nil || id != e1.ID {
		t.Errorf("prefix -> %q, %v", id, err)
	}
	if _, id, err := s.Resolve(e2.ID); err != nil || id != e2.ID {
		t.Errorf("full id -> %q, %v", id, err)
	}
	if _, _, err := s.Resolve("zzzzzz"); err == nil {
		t.Error("unknown reference must fail")
	}

	// File-path references bypass the store.
	if _, label, err := s.Resolve(e1.Path); err != nil || label != e1.Path {
		t.Errorf("path -> %q, %v", label, err)
	}

	// Re-adding the same config overwrites in place.
	again, err := s.Add(storeManifest(300, map[string]any{"seed": 1.0}))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != e1.ID {
		t.Fatalf("re-add changed id: %q vs %q", again.ID, e1.ID)
	}
	entries, _ = s.List()
	if len(entries) != 2 {
		t.Fatalf("overwrite grew the store to %d entries", len(entries))
	}
}

// TestResolveMissingPathSkipsListing pins the content-addressed miss: a
// path reference that names no file must fail with fs.ErrNotExist at
// once, without reading the store. The store holds a corrupt manifest, so
// any fallback to listing it surfaces as a different error.
func TestResolveMissingPathSkipsListing(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "runs"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir, "corrupt.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Resolve(filepath.Join(s.Dir, "0123456789ab.json"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing path resolved to %v, want an error wrapping fs.ErrNotExist", err)
	}
	if _, _, err := s.Resolve(s.Dir); err == nil {
		t.Error("a directory path must not resolve")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir must be rejected")
	}
}

func TestCompareAndWriteText(t *testing.T) {
	a := storeManifest(100, map[string]any{"fres_hz": 200.0, "merge_bins": 5.0})
	a.Stages = append(a.Stages, obs.StageTiming{Name: "detect", WallSeconds: 0.1, CPUSeconds: 0.1})
	a.Caches = map[string]obs.CacheStats{"fft_plan": {Hits: 9, Misses: 1, HitRate: 0.9}}
	a.Planner.StaticReplays = 40
	a.Planner.StaticCacheBytes = 1 << 20
	a.Adaptive = &obs.AdaptiveStats{
		Budget: 30, CapturesUsed: 20, ExhaustiveCaptures: 100,
		ReconCaptures: 5, RefineCaptures: 15, ReconFresHz: 1600, Candidates: 2,
	}

	b := storeManifest(200, map[string]any{"fres_hz": 200.0, "merge_bins": 5.0})
	b.Stages = []obs.StageTiming{
		{Name: "sweeps", WallSeconds: 0.4, CPUSeconds: 0.4},
		{Name: "score", WallSeconds: 0.05, CPUSeconds: 0.05},
	}
	b.Caches = map[string]obs.CacheStats{"window": {Hits: 5, Misses: 5, HitRate: 0.5}}
	// One detection within tolerance of A's (matched), one far away
	// (only-B); A keeps none unmatched.
	b.Detections = []obs.DetectionRecord{
		{FreqHz: 315.4e3, Score: 120, BestHarmonic: 1,
			SubScores: []obs.HarmonicScore{{Harmonic: 1, Score: 120, Elevated: 5}}},
		{FreqHz: 900e3, Score: 50, BestHarmonic: -1,
			SubScores: []obs.HarmonicScore{{Harmonic: -1, Score: 50, Elevated: 4}}},
	}

	d := Compare(a, b, "runA", "runB")
	if d.Detections.ToleranceHz != 1000 {
		t.Errorf("tolerance %.0f, want 1000 (200 Hz × 5 bins)", d.Detections.ToleranceHz)
	}
	if len(d.Detections.Matched) != 1 || len(d.Detections.OnlyA) != 0 || len(d.Detections.OnlyB) != 1 {
		t.Fatalf("detection diff: %+v", d.Detections)
	}
	if d.Detections.Matched[0].ScoreB != 120 {
		t.Errorf("matched pair: %+v", d.Detections.Matched[0])
	}
	// Stage union: A's order first (sweeps, detect), then B-only (score).
	names := make([]string, len(d.Stages))
	for i, st := range d.Stages {
		names[i] = st.Name
	}
	if strings.Join(names, ",") != "sweeps,detect,score" {
		t.Errorf("stage union order: %v", names)
	}
	if !d.Stages[0].InA || !d.Stages[0].InB || d.Stages[1].InB || d.Stages[2].InA {
		t.Errorf("stage membership flags: %+v", d.Stages)
	}
	if len(d.Caches) != 2 {
		t.Errorf("cache union: %+v", d.Caches)
	}
	if d.Adaptive == nil || d.Adaptive.BudgetA != 30 || d.Adaptive.BudgetB != 0 {
		t.Errorf("adaptive delta: %+v", d.Adaptive)
	}

	var sb strings.Builder
	if err := d.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"run diff: A=runA  B=runB",
		"sweeps", "detect", "score", "total",
		"static replays: A=40  B=0",
		"static cache bytes: A=1048576  B=0",
		"fft_plan", "window",
		"adaptive spend",
		"1 matched, 0 only in A, 1 only in B",
		"(only in B)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestCompareNoAdaptive(t *testing.T) {
	a := storeManifest(1, map[string]any{"x": 1.0})
	b := storeManifest(2, map[string]any{"x": 2.0})
	d := Compare(a, b, "a", "b")
	if d.Adaptive != nil {
		t.Error("no adaptive stats on either side must yield no adaptive delta")
	}
	// Default tolerance applies when the config carries no fres/merge.
	if d.Detections.ToleranceHz != 1e3 {
		t.Errorf("fallback tolerance %.0f", d.Detections.ToleranceHz)
	}
	if len(d.Detections.Matched) != 1 {
		t.Errorf("identical detections must match: %+v", d.Detections)
	}
}

// TestCompareWrappedConfigTolerance: archived manifests wrap the campaign
// config with the scene parameters; the matching radius still comes from
// the campaign's fres_hz × merge_bins.
func TestCompareWrappedConfigTolerance(t *testing.T) {
	wrapped := map[string]any{"system": "i7-desktop", "environment": true,
		"scan": map[string]any{"fres_hz": 200.0, "merge_bins": 5.0}}
	d := Compare(storeManifest(1, wrapped), storeManifest(2, wrapped), "a", "b")
	if d.Detections.ToleranceHz != 1000 {
		t.Errorf("tolerance %.0f, want 1000 (200 Hz × 5 bins)", d.Detections.ToleranceHz)
	}
}

func TestArchivedManifestsValidate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Add(storeManifest(10, map[string]any{"seed": 7.0}))
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateManifestFile(e.Path); err != nil {
		t.Fatalf("archived manifest fails validation: %v", err)
	}
	// A store directory with a corrupt file must fail List loudly.
	if err := os.WriteFile(filepath.Join(dir, "deadbeef0000.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List(); err == nil {
		t.Error("corrupt archived manifest must fail List")
	}
}
