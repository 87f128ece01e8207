package runstore

import (
	"fmt"
	"io"
	"math"
	"sort"

	"fase/internal/obs"
)

// Diff is the comparison of two archived runs (A → B): per-stage
// wall/CPU deltas, cache hit- and replay-rate movement, adaptive capture
// spend, and the detection-set difference.
type Diff struct {
	AID, BID string
	// Stages holds one row per stage name present in either run, in A's
	// stage order with B-only stages appended.
	Stages []StageDelta
	// Total compares the whole-run wall/CPU timings.
	Total StageDelta
	// CapturesA/B are the runs' rendered capture counts.
	CapturesA, CapturesB int64
	// Caches holds one row per cache name present in either run, sorted.
	Caches []CacheDelta
	// ReplaysA/B are the static-cache component replays (renders saved).
	ReplaysA, ReplaysB int64
	// StaticBytesA/B are the bytes the runs' static-layer caches held.
	StaticBytesA, StaticBytesB int64
	// Adaptive is present when at least one run carried adaptive stats.
	Adaptive *AdaptiveDelta
	// Detections is the detection-set comparison.
	Detections DetectionDiff
}

// StageDelta compares one stage's cost across the two runs.
type StageDelta struct {
	Name         string
	WallA, WallB float64
	CPUA, CPUB   float64
	InA, InB     bool
}

// CacheDelta compares one cache's behaviour across the two runs.
type CacheDelta struct {
	Name      string
	HitRateA  float64
	HitRateB  float64
	AccessesA int64
	AccessesB int64
}

// AdaptiveDelta compares the planners' budget spend.
type AdaptiveDelta struct {
	BudgetA, BudgetB   int64
	UsedA, UsedB       int64
	ReconA, ReconB     int64
	RefineA, RefineB   int64
	WindowsA, WindowsB int
}

// DetectionDiff is the detection-set comparison: detections are matched
// by frequency within the runs' merge tolerance.
type DetectionDiff struct {
	// ToleranceHz is the matching radius (merge_bins × fres_hz from the
	// config, 1 kHz when the config doesn't carry them).
	ToleranceHz float64
	// Matched pairs detections present in both runs.
	Matched []MatchedDetection
	// OnlyA/OnlyB list detections present in one run only.
	OnlyA, OnlyB []obs.DetectionRecord
}

// MatchedDetection is one carrier found by both runs.
type MatchedDetection struct {
	FreqA, FreqB   float64
	ScoreA, ScoreB float64
}

// Compare diffs two manifests. aID/bID label the runs in the report
// (store ids or file paths).
func Compare(a, b *obs.Manifest, aID, bID string) *Diff {
	d := &Diff{
		AID: aID, BID: bID,
		Total: StageDelta{Name: "total",
			WallA: a.TotalWallSeconds, WallB: b.TotalWallSeconds,
			CPUA: a.TotalCPUSeconds, CPUB: b.TotalCPUSeconds,
			InA: true, InB: true},
		CapturesA: a.Captures, CapturesB: b.Captures,
		ReplaysA: a.Planner.StaticReplays, ReplaysB: b.Planner.StaticReplays,
		StaticBytesA: a.Planner.StaticCacheBytes, StaticBytesB: b.Planner.StaticCacheBytes,
	}
	bStages := make(map[string]obs.StageTiming, len(b.Stages))
	for _, st := range b.Stages {
		bStages[st.Name] = st
	}
	seen := make(map[string]bool, len(a.Stages))
	for _, st := range a.Stages {
		if seen[st.Name] {
			continue
		}
		seen[st.Name] = true
		row := StageDelta{Name: st.Name, WallA: st.WallSeconds, CPUA: st.CPUSeconds, InA: true}
		if bs, ok := bStages[st.Name]; ok {
			row.WallB, row.CPUB, row.InB = bs.WallSeconds, bs.CPUSeconds, true
		}
		d.Stages = append(d.Stages, row)
	}
	for _, st := range b.Stages {
		if !seen[st.Name] {
			seen[st.Name] = true
			d.Stages = append(d.Stages, StageDelta{Name: st.Name,
				WallB: st.WallSeconds, CPUB: st.CPUSeconds, InB: true})
		}
	}

	cacheNames := map[string]bool{}
	for name := range a.Caches {
		cacheNames[name] = true
	}
	for name := range b.Caches {
		cacheNames[name] = true
	}
	names := make([]string, 0, len(cacheNames))
	for name := range cacheNames {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ca, cb := a.Caches[name], b.Caches[name]
		d.Caches = append(d.Caches, CacheDelta{Name: name,
			HitRateA: ca.HitRate, HitRateB: cb.HitRate,
			AccessesA: ca.Hits + ca.Misses, AccessesB: cb.Hits + cb.Misses})
	}

	if a.Adaptive != nil || b.Adaptive != nil {
		ad := &AdaptiveDelta{}
		if s := a.Adaptive; s != nil {
			ad.BudgetA, ad.UsedA, ad.ReconA, ad.RefineA, ad.WindowsA =
				s.Budget, s.CapturesUsed, s.ReconCaptures, s.RefineCaptures, len(s.Windows)
		}
		if s := b.Adaptive; s != nil {
			ad.BudgetB, ad.UsedB, ad.ReconB, ad.RefineB, ad.WindowsB =
				s.Budget, s.CapturesUsed, s.ReconCaptures, s.RefineCaptures, len(s.Windows)
		}
		d.Adaptive = ad
	}

	d.Detections = diffDetections(a, b)
	return d
}

// configTolerance derives the detection-matching radius from a manifest's
// resolved config (merge_bins × fres_hz), falling back to 1 kHz.
func configTolerance(m *obs.Manifest) float64 {
	cfg, ok := m.Config.(map[string]any)
	if !ok {
		return 1e3
	}
	fres, okF := cfg["fres_hz"].(float64)
	merge, okM := cfg["merge_bins"].(float64)
	if !okF || !okM || fres <= 0 || merge <= 0 {
		return 1e3
	}
	return fres * merge
}

func diffDetections(a, b *obs.Manifest) DetectionDiff {
	tol := math.Max(configTolerance(a), configTolerance(b))
	dd := DetectionDiff{ToleranceHz: tol}
	usedB := make([]bool, len(b.Detections))
	for _, da := range a.Detections {
		best, bestDist := -1, math.Inf(1)
		for j, db := range b.Detections {
			if usedB[j] {
				continue
			}
			if dist := math.Abs(da.FreqHz - db.FreqHz); dist <= tol && dist < bestDist {
				best, bestDist = j, dist
			}
		}
		if best < 0 {
			dd.OnlyA = append(dd.OnlyA, da)
			continue
		}
		usedB[best] = true
		dd.Matched = append(dd.Matched, MatchedDetection{
			FreqA: da.FreqHz, FreqB: b.Detections[best].FreqHz,
			ScoreA: da.Score, ScoreB: b.Detections[best].Score,
		})
	}
	for j, db := range b.Detections {
		if !usedB[j] {
			dd.OnlyB = append(dd.OnlyB, db)
		}
	}
	return dd
}

// WriteText renders the diff as an aligned plain-text report.
func (d *Diff) WriteText(w io.Writer) error {
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format, args...)
	}
	p("run diff: A=%s  B=%s\n\n", d.AID, d.BID)
	p("stages (wall s / cpu s):\n")
	p("  %-10s %12s %12s %12s   %12s %12s %12s\n",
		"stage", "wall A", "wall B", "Δwall", "cpu A", "cpu B", "Δcpu")
	rows := append([]StageDelta{}, d.Stages...)
	rows = append(rows, d.Total)
	for _, st := range rows {
		p("  %-10s %12.4f %12.4f %+12.4f   %12.4f %12.4f %+12.4f\n",
			st.Name, st.WallA, st.WallB, st.WallB-st.WallA,
			st.CPUA, st.CPUB, st.CPUB-st.CPUA)
	}
	p("\ncaptures: A=%d  B=%d  Δ=%+d\n", d.CapturesA, d.CapturesB, d.CapturesB-d.CapturesA)
	p("static replays: A=%d  B=%d  Δ=%+d\n", d.ReplaysA, d.ReplaysB, d.ReplaysB-d.ReplaysA)
	p("static cache bytes: A=%d  B=%d  Δ=%+d\n", d.StaticBytesA, d.StaticBytesB, d.StaticBytesB-d.StaticBytesA)
	p("\ncaches (hit rate):\n")
	p("  %-16s %10s %10s %10s %12s %12s\n", "cache", "A", "B", "Δ", "accesses A", "accesses B")
	for _, c := range d.Caches {
		p("  %-16s %10.3f %10.3f %+10.3f %12d %12d\n",
			c.Name, c.HitRateA, c.HitRateB, c.HitRateB-c.HitRateA, c.AccessesA, c.AccessesB)
	}
	if ad := d.Adaptive; ad != nil {
		p("\nadaptive spend (captures):\n")
		p("  %-10s %10s %10s %10s\n", "", "A", "B", "Δ")
		for _, row := range [][3]int64{
			{ad.BudgetA, ad.BudgetB, 0}, {ad.UsedA, ad.UsedB, 1},
			{ad.ReconA, ad.ReconB, 2}, {ad.RefineA, ad.RefineB, 3},
		} {
			name := [...]string{"budget", "used", "recon", "refine"}[row[2]]
			p("  %-10s %10d %10d %+10d\n", name, row[0], row[1], row[1]-row[0])
		}
		p("  %-10s %10d %10d %+10d\n", "windows",
			ad.WindowsA, ad.WindowsB, ad.WindowsB-ad.WindowsA)
	}
	dd := d.Detections
	p("\ndetections (matched within %.0f Hz): %d matched, %d only in A, %d only in B\n",
		dd.ToleranceHz, len(dd.Matched), len(dd.OnlyA), len(dd.OnlyB))
	for _, m := range dd.Matched {
		p("  = %12.1f Hz  score A %10.1f  B %10.1f  Δ %+10.1f\n",
			m.FreqA, m.ScoreA, m.ScoreB, m.ScoreB-m.ScoreA)
	}
	for _, da := range dd.OnlyA {
		p("  - %12.1f Hz  score %10.1f  (only in A)\n", da.FreqHz, da.Score)
	}
	for _, db := range dd.OnlyB {
		p("  + %12.1f Hz  score %10.1f  (only in B)\n", db.FreqHz, db.Score)
	}
	return nil
}
