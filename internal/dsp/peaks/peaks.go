// Package peaks provides peak detection for spectra and score traces.
//
// Two detectors are provided: a prominence-based local-maximum finder used
// on FASE heuristic outputs, and the Palshikar S1 spike score referenced by
// the paper (§3, [29]) for comparison and for locating spectral spikes.
package peaks

import (
	"fmt"
	"math"
	"sort"
)

// Peak describes one detected local maximum.
type Peak struct {
	Index      int     // bin index of the maximum
	Value      float64 // value at the maximum
	Prominence float64 // height above the higher of the two flanking saddles
	LeftBase   int     // index of the left saddle bounding the peak
	RightBase  int     // index of the right saddle bounding the peak
}

// Options tunes Find.
type Options struct {
	// MinValue discards peaks whose value is below this threshold.
	MinValue float64
	// MinProminence discards peaks that do not rise at least this much
	// above their surrounding saddles.
	MinProminence float64
	// MinDistance enforces at least this many bins between reported
	// peaks; when two conflict, the taller wins. Zero disables.
	MinDistance int
	// MaxPeaks caps the number of returned peaks (tallest first) when
	// positive.
	MaxPeaks int
}

// Find locates local maxima in x and returns them sorted by descending
// value. A plateau reports its leftmost sample. Prominence (and the
// saddle bases) is computed only for maxima whose value is at least
// opt.MinValue; the others are discarded before the walk.
func Find(x []float64, opt Options) []Peak {
	var out []Peak
	n := len(x)
	for i := 1; i < n-1; i++ {
		if x[i] < x[i-1] {
			continue
		}
		// Skip forward over a plateau.
		j := i
		for j < n-1 && x[j+1] == x[i] {
			j++
		}
		if j == n-1 || x[j+1] >= x[i] {
			i = j
			continue
		}
		// The value gate comes first: a prominence walk can span the
		// whole trace, and most local maxima of a score trace sit far
		// below MinValue.
		if x[i] >= opt.MinValue {
			p := Peak{Index: i, Value: x[i]}
			p.Prominence, p.LeftBase, p.RightBase = prominence(x, i)
			if p.Prominence >= opt.MinProminence {
				out = append(out, p)
			}
		}
		i = j
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Value > out[b].Value })
	if opt.MinDistance > 0 {
		out = enforceDistance(out, opt.MinDistance)
	}
	if opt.MaxPeaks > 0 && len(out) > opt.MaxPeaks {
		out = out[:opt.MaxPeaks]
	}
	return out
}

// prominence computes the classical topographic prominence of the peak at
// index i: descend left and right until a sample higher than x[i] is found
// (or the edge); the prominence is x[i] minus the higher of the two minima
// along those walks.
func prominence(x []float64, i int) (prom float64, leftBase, rightBase int) {
	leftMin, leftBase := x[i], i
	for j := i - 1; j >= 0; j-- {
		if x[j] > x[i] {
			break
		}
		if x[j] < leftMin {
			leftMin, leftBase = x[j], j
		}
	}
	rightMin, rightBase := x[i], i
	for j := i + 1; j < len(x); j++ {
		if x[j] > x[i] {
			break
		}
		if x[j] < rightMin {
			rightMin, rightBase = x[j], j
		}
	}
	base := math.Max(leftMin, rightMin)
	return x[i] - base, leftBase, rightBase
}

func enforceDistance(peaks []Peak, minDist int) []Peak {
	kept := peaks[:0]
	for _, p := range peaks {
		ok := true
		for _, q := range kept {
			if abs(p.Index-q.Index) < minDist {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, p)
		}
	}
	return kept
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

// S1 computes Palshikar's S1 spike score for every sample: the average of
// the maximum rise over the k left neighbours and the maximum rise over the
// k right neighbours. Large positive values mark spikes.
func S1(x []float64, k int) []float64 {
	if k <= 0 {
		panic(fmt.Sprintf("peaks: S1 window must be positive, got %d", k))
	}
	n := len(x)
	out := make([]float64, n)
	for i := range x {
		left := math.Inf(-1)
		for j := i - k; j < i; j++ {
			if j >= 0 {
				if d := x[i] - x[j]; d > left {
					left = d
				}
			}
		}
		right := math.Inf(-1)
		for j := i + 1; j <= i+k; j++ {
			if j < n {
				if d := x[i] - x[j]; d > right {
					right = d
				}
			}
		}
		switch {
		case math.IsInf(left, -1) && math.IsInf(right, -1):
			out[i] = 0
		case math.IsInf(left, -1):
			out[i] = right
		case math.IsInf(right, -1):
			out[i] = left
		default:
			out[i] = (left + right) / 2
		}
	}
	return out
}

// SpikesS1 returns indices whose S1 score exceeds mean + h·stddev of the
// positive scores, Palshikar's recommended thresholding.
func SpikesS1(x []float64, k int, h float64) []int {
	s := S1(x, k)
	var pos []float64
	for _, v := range s {
		if v > 0 {
			pos = append(pos, v)
		}
	}
	if len(pos) == 0 {
		return nil
	}
	mean, std := meanStd(pos)
	var out []int
	for i, v := range s {
		if v > 0 && v-mean >= h*std {
			out = append(out, i)
		}
	}
	return out
}

func meanStd(x []float64) (mean, std float64) {
	for _, v := range x {
		mean += v
	}
	mean /= float64(len(x))
	for _, v := range x {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(x)))
	return mean, std
}
