package report

import (
	"fmt"
	"sort"
	"strings"

	"fase/internal/obs"
)

// ManifestTables renders a run manifest as report tables — the human-
// readable view of the JSON a campaign writes with -manifest-out: where
// the time went, what the planner and caches did, and the provenance
// behind every detection.
func ManifestTables(m *obs.Manifest) []Table {
	if m == nil {
		return nil
	}
	tables := []Table{
		manifestStageTable(m),
		manifestCacheTable(m),
		manifestPlannerTable(m),
	}
	if len(m.Histograms) > 0 {
		tables = append(tables, manifestHistogramTable(m))
	}
	if m.Adaptive != nil {
		tables = append(tables, manifestAdaptiveTable(m))
	}
	return append(tables, manifestDetectionTable(m))
}

// manifestHistogramTable renders the per-histogram latency quantiles the
// manifest carries (estimated from bucket counts by linear interpolation).
func manifestHistogramTable(m *obs.Manifest) Table {
	t := Table{
		Title:  "Latency histograms",
		Header: []string{"histogram", "count", "sum s", "p50 s", "p90 s", "p99 s"},
	}
	names := make([]string, 0, len(m.Histograms))
	for name := range m.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := m.Histograms[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", h.Count),
			fmt.Sprintf("%.4f", h.Sum),
			fmt.Sprintf("%.6f", h.P50),
			fmt.Sprintf("%.6f", h.P90),
			fmt.Sprintf("%.6f", h.P99),
		})
	}
	return t
}

// manifestAdaptiveTable summarizes the adaptive planner's budget spend
// and per-window outcomes; emitted only for adaptive campaigns.
func manifestAdaptiveTable(m *obs.Manifest) Table {
	a := m.Adaptive
	t := Table{
		Title: fmt.Sprintf("Adaptive plan (budget %d, used %d of exhaustive %d; recon %d + refine %d @ recon RBW %.0f Hz, %d candidates)",
			a.Budget, a.CapturesUsed, a.ExhaustiveCaptures,
			a.ReconCaptures, a.RefineCaptures, a.ReconFresHz, a.Candidates),
		Header: []string{"window kHz", "priority", "outcome", "captures", "probe score", "detections"},
	}
	for _, w := range a.Windows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f–%.2f", w.F1Hz/1e3, w.F2Hz/1e3),
			fmt.Sprintf("%.1f", w.Priority),
			w.Outcome,
			fmt.Sprintf("%d", w.Captures),
			fmt.Sprintf("%.2f", w.ProbeScore),
			fmt.Sprintf("%d", w.Detections),
		})
	}
	return t
}

func manifestStageTable(m *obs.Manifest) Table {
	t := Table{
		Title:  "Stage timings",
		Header: []string{"stage", "wall s", "cpu s", "share %"},
	}
	for _, st := range m.Stages {
		share := 0.0
		if m.TotalWallSeconds > 0 {
			share = 100 * st.WallSeconds / m.TotalWallSeconds
		}
		t.Rows = append(t.Rows, []string{
			st.Name,
			fmt.Sprintf("%.4f", st.WallSeconds),
			fmt.Sprintf("%.4f", st.CPUSeconds),
			fmt.Sprintf("%.1f", share),
		})
	}
	t.Rows = append(t.Rows, []string{
		"total",
		fmt.Sprintf("%.4f", m.TotalWallSeconds),
		fmt.Sprintf("%.4f", m.TotalCPUSeconds),
		"100.0",
	})
	return t
}

func manifestCacheTable(m *obs.Manifest) Table {
	t := Table{
		Title:  "Cache hit rates",
		Header: []string{"cache", "hits", "misses", "hit rate"},
	}
	names := make([]string, 0, len(m.Caches))
	for name := range m.Caches {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := m.Caches[name]
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", c.Hits),
			fmt.Sprintf("%d", c.Misses),
			fmt.Sprintf("%.3f", c.HitRate),
		})
	}
	return t
}

func manifestPlannerTable(m *obs.Manifest) Table {
	p := m.Planner
	return Table{
		Title:  "Render planner",
		Header: []string{"plans", "plan hits", "plan misses", "active", "skipped", "render skips", "segments", "static cache B"},
		Rows: [][]string{{
			fmt.Sprintf("%d", p.PlansBuilt),
			fmt.Sprintf("%d", p.CacheHits),
			fmt.Sprintf("%d", p.CacheMisses),
			fmt.Sprintf("%d", p.ComponentsActive),
			fmt.Sprintf("%d", p.ComponentsSkipped),
			fmt.Sprintf("%d", p.RenderSkips),
			fmt.Sprintf("%d", len(p.Segments)),
			fmt.Sprintf("%d", p.StaticCacheBytes),
		}},
	}
}

func manifestDetectionTable(m *obs.Manifest) Table {
	t := Table{
		Title:  "Detections",
		Header: []string{"freq kHz", "score", "best h", "harmonics", "mag dBm", "depth dB", "sub-scores"},
	}
	for _, d := range m.Detections {
		subs := make([]string, 0, len(d.SubScores))
		for _, s := range d.SubScores {
			subs = append(subs, fmt.Sprintf("%+d:%.1f/%d", s.Harmonic, s.Score, s.Elevated))
		}
		harm := make([]string, 0, len(d.Harmonics))
		for _, h := range d.Harmonics {
			harm = append(harm, fmt.Sprintf("%+d", h))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", d.FreqHz/1e3),
			fmt.Sprintf("%.1f", d.Score),
			fmt.Sprintf("%+d", d.BestHarmonic),
			strings.Join(harm, ","),
			fmt.Sprintf("%.1f", d.MagnitudeDBm),
			fmt.Sprintf("%.1f", d.DepthDB),
			strings.Join(subs, " "),
		})
	}
	return t
}
