package sig

import (
	"math"
	"math/rand"
	"testing"
)

// sameSincos reports whether Sincos(x) and math.Sincos(x) agree bit for
// bit (NaNs included: the fallback returns math's own NaN).
func sameSincos(x float64) (ok bool, gs, gc, ws, wc float64) {
	gs, gc = Sincos(x)
	ws, wc = math.Sincos(x)
	return math.Float64bits(gs) == math.Float64bits(ws) &&
		math.Float64bits(gc) == math.Float64bits(wc), gs, gc, ws, wc
}

// octantEdge returns the largest float64 x with x·(4/π) < 1, the last
// argument Sincos evaluates without falling through.
func octantEdge() float64 {
	x := math.Pi / 4
	for x*(4/math.Pi) >= 1 {
		x = math.Nextafter(x, 0)
	}
	for next := math.Nextafter(x, 1); next*(4/math.Pi) < 1; next = math.Nextafter(x, 1) {
		x = next
	}
	return x
}

func TestSincosMatchesMathEdgeCases(t *testing.T) {
	edge := octantEdge()
	cases := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		-math.Float64frombits(0x000fffffffffffff),
		math.NaN(), math.Inf(1), math.Inf(-1),
		edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1),
		-edge, -math.Nextafter(edge, 0), -math.Nextafter(edge, 1),
		math.Pi / 4, -math.Pi / 4, 1e-300, -1e-4, 2 * math.Pi * 137 * 1.5e-8,
		-math.Pi * 0.2, -math.Pi * 0.083, -math.Pi * 0.5, 1, -3, 100,
		1 << 29, -(1 << 29), math.Nextafter(1<<29, 0), 1e300, -math.MaxFloat64,
	}
	for _, x := range cases {
		if ok, gs, gc, ws, wc := sameSincos(x); !ok {
			t.Errorf("Sincos(%v) = (%v, %v), math.Sincos = (%v, %v)", x, gs, gc, ws, wc)
		}
	}
	if next := math.Nextafter(edge, 1); !(next*(4/math.Pi) >= 1) {
		t.Fatalf("octant edge %v is not the last first-octant argument", edge)
	}
}

func TestSincosMatchesMathRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		var x float64
		switch i % 3 {
		case 0: // uniform over the first octant and a little beyond
			x = (2*r.Float64() - 1) * 0.8
		case 1: // log-uniform magnitudes, both signs
			x = math.Ldexp(r.Float64(), -r.Intn(1080))
			if r.Intn(2) == 0 {
				x = -x
			}
		default: // arbitrary bit patterns
			x = math.Float64frombits(r.Uint64())
		}
		if ok, gs, gc, ws, wc := sameSincos(x); !ok {
			t.Fatalf("Sincos(%v) = (%v, %v), math.Sincos = (%v, %v)", x, gs, gc, ws, wc)
		}
	}
}

func FuzzSincos(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1e-4, -0.6, octantEdge(), math.Pi / 4, 3, 1 << 29, math.NaN(), math.Inf(-1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if ok, gs, gc, ws, wc := sameSincos(x); !ok {
			t.Fatalf("Sincos(%v) = (%v, %v), math.Sincos = (%v, %v)", x, gs, gc, ws, wc)
		}
	})
}
