package sig

import "math"

// Sincos returns math.Sincos(x), bit for bit, with a cheaper path for the
// small arguments the per-sample render loops feed it (duty phasors −π·d
// with d ≤ 0.2, wander and sweep rotations 2π·Δf·dt ≈ 1e-4).
//
// math.Sincos folds |x| into the first octant by Cody–Waite reduction
// with j = ⌊|x|·4/π⌋. When that j is 0 the reduction is the identity
// (z = ((|x| − 0·PI4A) − 0·PI4B) − 0·PI4C = |x|), no octant swap or cosine
// sign flip applies, and only the sine takes x's sign — so evaluating the
// same two polynomials, with the same coefficients and operation order,
// on |x| directly gives the same bits. Every other argument (0, whose
// signed zero math.Sincos returns as is, NaN, ±Inf and |x| ≥ π/4) falls
// through to math.Sincos.
func Sincos(x float64) (sin, cos float64) {
	z := math.Abs(x)
	if x == 0 || !(z*(4/math.Pi) < 1) {
		return math.Sincos(x)
	}
	// Coefficients of math's sin.go (Cephes sin.c), in its order.
	const (
		s0 = 1.58962301576546568060e-10
		s1 = -2.50507477628578072866e-8
		s2 = 2.75573136213857245213e-6
		s3 = -1.98412698295895385996e-4
		s4 = 8.33333333332211858878e-3
		s5 = -1.66666666666666307295e-1

		c0 = -1.13585365213876817300e-11
		c1 = 2.08757008419747316778e-9
		c2 = -2.75573141792967388112e-7
		c3 = 2.48015872888517045348e-5
		c4 = -1.38888888888730564116e-3
		c5 = 4.16666666666665929218e-2
	)
	zz := z * z
	cos = 1.0 - 0.5*zz + zz*zz*((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
	sin = z + z*zz*((((((s0*zz)+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
	if x < 0 {
		sin = -sin
	}
	return sin, cos
}
