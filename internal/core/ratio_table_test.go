package core

import (
	"math"
	"math/rand"
	"testing"

	"fase/internal/dsp/spectral"
)

// referenceScoreDetail is the per-harmonic scorer the ratio table
// replaced, kept verbatim as the table's reference: it recomputes the
// clamped leave-one-out ratios for every harmonic.
func referenceScoreDetail(spectra []*spectral.Spectrum, falts []float64, h int, minRatio float64) ([]float64, []int) {
	n := len(spectra)
	base := spectra[0]
	bins := base.Bins()
	shifts := make([]int, n)
	for i, fa := range falts {
		shifts[i] = int(math.Round(float64(h) * fa / base.Fres))
	}
	colSum := make([]float64, bins)
	for _, s := range spectra {
		for m, v := range s.PmW {
			if v < scoreFloor {
				v = scoreFloor
			}
			colSum[m] += v
		}
	}
	prod := make([]float64, bins)
	elev := make([]int, bins)
	for k := range prod {
		score := 1.0
		count := 0
		for i, s := range spectra {
			m := k + shifts[i]
			if m < 0 || m >= bins {
				continue // out of range: neutral sub-score
			}
			v := s.PmW[m]
			if v < scoreFloor {
				v = scoreFloor
			}
			denom := (colSum[m] - v) / float64(n-1)
			if denom < scoreFloor {
				denom = scoreFloor
			}
			r := v / denom
			score *= r
			if r >= minRatio {
				count++
			}
		}
		prod[k] = score
		elev[k] = count
	}
	return prod, elev
}

// randomScoringSpectra draws measurements whose bins mix ordinary
// powers, exact zeros and values below scoreFloor (both clamped), and
// alternation frequencies whose shifts range from a few bins to beyond
// the whole grid.
func randomScoringSpectra(r *rand.Rand) ([]*spectral.Spectrum, []float64) {
	n := 2 + r.Intn(5)
	bins := 1 + r.Intn(400)
	fres := 50 + r.Float64()*450
	spectra := make([]*spectral.Spectrum, n)
	falts := make([]float64, n)
	step := fres * float64(1+r.Intn(bins+5)) / 7
	for i := range spectra {
		s := spectral.New(1e5, fres, bins)
		for m := range s.PmW {
			switch r.Intn(8) {
			case 0:
				s.PmW[m] = 0
			case 1:
				s.PmW[m] = 1e-35 * r.Float64()
			case 2:
				s.PmW[m] = scoreFloor
			default:
				s.PmW[m] = math.Exp(-30 + 10*r.NormFloat64())
			}
		}
		spectra[i] = s
		falts[i] = 5*fres + float64(i)*step
	}
	return spectra, falts
}

func sameTrace(t *testing.T, tag string, got, want []float64, gotE, wantE []int) {
	t.Helper()
	if len(got) != len(want) || len(gotE) != len(wantE) {
		t.Fatalf("%s: lengths %d/%d, want %d/%d", tag, len(got), len(gotE), len(want), len(wantE))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) || gotE[k] != wantE[k] {
			t.Fatalf("%s: bin %d = (%v, %d), want (%v, %d)", tag, k, got[k], gotE[k], want[k], wantE[k])
		}
	}
}

// TestRatioTableMatchesPerHarmonicScoring: scoring every harmonic from
// one ratio table (ScoreDetail, scoreHarmonics) is bit-identical to the
// per-harmonic formula, for positive and negative harmonics, clamped
// bins, and shifts that fall partly or wholly out of range.
func TestRatioTableMatchesPerHarmonicScoring(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	hs := []int{1, -1, 2, -2, 3, -3, 5, -5, 17, -40}
	for trial := 0; trial < 60; trial++ {
		spectra, falts := randomScoringSpectra(r)
		minRatio := []float64{2, 0.5, 1e6}[trial%3]
		scores, elevated := scoreHarmonics(spectra, falts, hs)
		for _, h := range hs {
			want, wantE := referenceScoreDetail(spectra, falts, h, minRatio)
			got, gotE := ScoreDetail(spectra, falts, h, minRatio)
			sameTrace(t, "ScoreDetail", got, want, gotE, wantE)
			want2, wantE2 := referenceScoreDetail(spectra, falts, h, 2)
			sameTrace(t, "scoreHarmonics", scores[h], want2, elevated[h], wantE2)
		}
		// SubScores reads the same table: each trace's product over
		// measurements is the score trace.
		subs := SubScores(spectra, falts, hs[trial%len(hs)])
		want, _ := referenceScoreDetail(spectra, falts, hs[trial%len(hs)], 2)
		for k := range want {
			p := 1.0
			for i := range subs {
				p *= subs[i][k]
			}
			if math.Float64bits(p) != math.Float64bits(want[k]) {
				t.Fatalf("SubScores: bin %d product %v, want %v", k, p, want[k])
			}
		}
	}
}
