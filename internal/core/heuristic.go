// Package core implements FASE itself: the side-band shift heuristic of
// §2.4 (Equations 1 and 2), the multi-f_alt measurement campaign of §2.3,
// carrier detection and frequency computation, harmonic-set grouping, and
// cross-activity classification.
//
// The idea: when the micro-benchmark alternates activity at f_alt, every
// carrier that is AM-modulated by that activity grows side-bands at
// fc ± h·f_alt. Stepping f_alt by f_Δ moves only those side-bands — by
// h·f_Δ — while every other feature of the spectrum stays put. The
// heuristic scores each frequency f by how much each measurement's
// spectrum, shifted by h·f_alt_i, sticks out above the other measurements
// shifted by their own h·f_alt_j: only true side-bands align, so the
// product of sub-scores spikes exactly at modulated carrier frequencies.
package core

import (
	"fmt"
	"math"

	"fase/internal/dsp/bufpool"
	"fase/internal/dsp/spectral"
)

// scoreFloor keeps ratios finite on empty bins.
const scoreFloor = 1e-30

// Score evaluates the heuristic F_h(f) of Equation 1 for one harmonic h
// over the common frequency grid of the measurements. spectra[i] must all
// share geometry; falts[i] is the alternation frequency of measurement i.
// The returned slice is indexed like the spectra's bins: out[k] is F_h of
// the frequency spectra[0].Freq(k), interpreted as a candidate carrier
// frequency.
//
// Sub-score i reads measurement i at its shifted frequency f + h·falt_i
// and normalizes by the average of the *other* measurements at that same
// frequency ("At the exact same frequency in at least some of the other
// spectra, however, the signal will not be as strong because these
// spectra have peaks at falt_j and so their side-band signal is at a
// different frequency", §2.4). A side-band that moves with f_alt makes
// every sub-score large at f = fc; anything that stays put cancels to ≈1.
//
// Sub-scores whose shifted bin falls outside the measured span are
// neutral (1), implementing the paper's robustness to obscured or
// out-of-range side-bands: remaining sub-scores still raise the product.
func Score(spectra []*spectral.Spectrum, falts []float64, h int) []float64 {
	prod, _ := ScoreDetail(spectra, falts, h, 2)
	return prod
}

// ScoreDetail computes the heuristic product trace (as Score) plus, per
// bin, the number of sub-scores exceeding minRatio. A genuine moving
// side-band elevates *every* measurement's sub-score at the carrier
// frequency, while artifacts (probes sampling the fluctuating flank of a
// static line) elevate only a few — so requiring a majority of elevated
// sub-scores discriminates carriers from ghosts without sacrificing the
// paper's robustness to a minority of obscured side-bands.
//
// It is a thin wrapper over the measurements' ratio table: it builds the
// table and scores one harmonic from it. The campaign reduce scores all
// of its harmonics from a single table (scoreHarmonics).
func ScoreDetail(spectra []*spectral.Spectrum, falts []float64, h int, minRatio float64) ([]float64, []int) {
	t := newRatioTable(spectra, falts)
	defer t.release()
	return t.score(h, minRatio)
}

// scoreHarmonics scores every harmonic in hs from one ratio table,
// returning the product traces and elevated counts keyed by harmonic
// (ScoreDetail with minRatio 2 for each).
func scoreHarmonics(spectra []*spectral.Spectrum, falts []float64, hs []int) (map[int][]float64, map[int][]int) {
	t := newRatioTable(spectra, falts)
	defer t.release()
	scores := make(map[int][]float64, len(hs))
	elevated := make(map[int][]int, len(hs))
	for _, h := range hs {
		scores[h], elevated[h] = t.score(h, 2)
	}
	return scores, elevated
}

// ratioTable holds every measurement's sub-score ratio at every bin m,
//
//	rows[i][m] = v_i[m] / max(mean_{j≠i} v_j[m], scoreFloor),
//
// with each v clamped below at scoreFloor. The ratio does not depend on
// the harmonic — harmonic h only decides which bin m = k + round(h·falt_i
// / fres) sub-score i reads for candidate bin k — so one table serves
// every harmonic of a campaign, and the per-harmonic work is a shifted
// product and count over it. Rows come from bufpool; release returns
// them.
type ratioTable struct {
	rows  [][]float64
	falts []float64
	fres  float64
}

func newRatioTable(spectra []*spectral.Spectrum, falts []float64) ratioTable {
	n := len(spectra)
	if n < 2 {
		panic(fmt.Sprintf("core: need at least 2 measurements, got %d", n))
	}
	if len(falts) != n {
		panic(fmt.Sprintf("core: %d spectra but %d alternation frequencies", n, len(falts)))
	}
	base := spectra[0]
	for _, s := range spectra[1:] {
		if s.F0 != base.F0 || s.Fres != base.Fres || s.Bins() != base.Bins() {
			panic("core: measurement spectra must share geometry")
		}
	}
	bins := base.Bins()
	// Column sums across measurements, for O(1) leave-one-out means,
	// accumulated in measurement order.
	colSum := bufpool.Float(bins)
	defer bufpool.PutFloat(colSum)
	clear(colSum)
	for _, s := range spectra {
		for m, v := range s.PmW[:bins] {
			if v < scoreFloor {
				v = scoreFloor
			}
			colSum[m] += v
		}
	}
	rows := make([][]float64, n)
	for i, s := range spectra {
		row := bufpool.Float(bins)
		for m, v := range s.PmW[:bins] {
			if v < scoreFloor {
				v = scoreFloor
			}
			denom := (colSum[m] - v) / float64(n-1)
			if denom < scoreFloor {
				denom = scoreFloor
			}
			row[m] = v / denom
		}
		rows[i] = row
	}
	return ratioTable{rows: rows, falts: falts, fres: base.Fres}
}

// release returns the table's rows to the pool; the table must not be
// used afterwards.
func (t ratioTable) release() {
	for i, row := range t.rows {
		bufpool.PutFloat(row)
		t.rows[i] = nil
	}
}

// score evaluates harmonic h: prod[k] is the product, in measurement
// order, of the sub-scores rows[i][k+shift_i] whose shifted bin is in
// range (out-of-range sub-scores are neutral), and elev[k] counts those
// at or above minRatio.
func (t ratioTable) score(h int, minRatio float64) ([]float64, []int) {
	if h == 0 {
		panic("core: harmonic must be nonzero")
	}
	bins := len(t.rows[0])
	// Candidate bins in [lo, hi) read every row in range; the bins
	// outside it, at most the largest shift on each side, take the
	// range-checked path.
	shifts := make([]int, len(t.rows))
	lo, hi := 0, bins
	for i, fa := range t.falts {
		shifts[i] = int(math.Round(float64(h) * fa / t.fres))
		lo, hi = max(lo, -shifts[i]), min(hi, bins-shifts[i])
	}
	lo = min(lo, bins)
	hi = max(hi, lo)
	prod := make([]float64, bins)
	elev := make([]int, bins)
	for k := 0; k < lo; k++ {
		prod[k], elev[k] = t.scoreBin(k, shifts, minRatio)
	}
	for k := hi; k < bins; k++ {
		prod[k], elev[k] = t.scoreBin(k, shifts, minRatio)
	}
	if lo == hi {
		return prod, elev
	}
	n := hi - lo
	src := make([][]float64, len(t.rows))
	for i, row := range t.rows {
		src[i] = row[lo+shifts[i] : hi+shifts[i] : hi+shifts[i]]
	}
	p, e := prod[lo:hi:hi], elev[lo:hi:hi]
	for k := 0; k < n; k++ {
		v, c := 1.0, 0
		for _, row := range src {
			r := row[k]
			v *= r
			// Counted without a branch: whether a ratio clears minRatio
			// is data-dependent, and a branch on it mispredicts often.
			inc := 0
			if r >= minRatio {
				inc = 1
			}
			c += inc
		}
		p[k], e[k] = v, c
	}
	return prod, elev
}

// scoreBin is score at one candidate bin k, range-checking each shifted
// bin.
func (t ratioTable) scoreBin(k int, shifts []int, minRatio float64) (float64, int) {
	v, c := 1.0, 0
	for i, row := range t.rows {
		if m := k + shifts[i]; m >= 0 && m < len(row) {
			v *= row[m]
			if row[m] >= minRatio {
				c++
			}
		}
	}
	return v, c
}

// SmoothSpectrum returns a copy of s whose bins are replaced by a
// centered moving average of width w (forced odd). Scoring smoothed
// spectra matched to the side-band linewidth suppresses the chi-square
// tails of per-bin ratios that would otherwise produce false peaks, while
// preserving the ratio between a true side-band and the other
// measurements' floor.
func SmoothSpectrum(s *spectral.Spectrum, w int) *spectral.Spectrum {
	out := s.Clone()
	SmoothSpectrumInto(out, s, w)
	return out
}

// SmoothSpectrumInto is the allocation-free form of SmoothSpectrum: it
// writes the width-w moving average of src into dst, whose PmW must
// already hold src.Bins() elements (e.g. from bufpool.Float — every
// element is overwritten, so a dirty pooled buffer is fine). dst must not
// alias src. Campaigns smooth one ~78k-bin spectrum per measurement, so
// pooling these buffers keeps scoring allocation-free in steady state.
func SmoothSpectrumInto(dst, src *spectral.Spectrum, w int) {
	n := src.Bins()
	if len(dst.PmW) != n {
		panic(fmt.Sprintf("core: smoothing %d bins into a %d-bin destination", n, len(dst.PmW)))
	}
	dst.F0, dst.Fres = src.F0, src.Fres
	if w <= 1 {
		copy(dst.PmW, src.PmW)
		return
	}
	if w%2 == 0 {
		w++
	}
	half := w / 2
	var acc float64
	// Prefix-sum sliding window: O(n) for any width.
	for i := 0; i < n && i <= half; i++ {
		acc += src.PmW[i]
	}
	count := minInt(half+1, n)
	for i := 0; i < n; i++ {
		dst.PmW[i] = acc / float64(count)
		if hi := i + half + 1; hi < n {
			acc += src.PmW[hi]
			count++
		}
		if lo := i - half; lo >= 0 {
			acc -= src.PmW[lo]
			count--
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SubScores returns the raw per-measurement sub-score traces F_{i,h}(f)
// of Equation 2, out[i][k] being measurement i's sub-score at bin k.
// Useful for ablating the combination rule (product vs sum) and for
// diagnosing which measurement contributed a detection.
func SubScores(spectra []*spectral.Spectrum, falts []float64, h int) [][]float64 {
	n := len(spectra)
	if n < 2 || len(falts) != n || h == 0 {
		panic("core: SubScores needs >=2 matching spectra and a nonzero harmonic")
	}
	t := newRatioTable(spectra, falts)
	defer t.release()
	bins := len(t.rows[0])
	out := make([][]float64, n)
	for i, row := range t.rows {
		shift := int(math.Round(float64(h) * falts[i] / t.fres))
		trace := make([]float64, bins)
		for k := range trace {
			if m := k + shift; m >= 0 && m < bins {
				trace[k] = row[m]
			} else {
				trace[k] = 1
			}
		}
		out[i] = trace
	}
	return out
}

// DefaultHarmonics is the set the paper's campaigns evaluate: positive
// and negative 1st through 5th harmonics of f_alt (§3).
func DefaultHarmonics() []int {
	return []int{1, -1, 2, -2, 3, -3, 4, -4, 5, -5}
}

// ScoreAll evaluates the heuristic for every harmonic in hs and returns a
// map harmonic → score trace.
func ScoreAll(spectra []*spectral.Spectrum, falts []float64, hs []int) map[int][]float64 {
	scores, _ := scoreHarmonics(spectra, falts, hs)
	return scores
}
