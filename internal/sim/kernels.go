package sim

import "math"

// The batched sampler's three transcendental passes (lognormal_batch.go).
// Each pass runs 4-lane AVX2+FMA kernels where the host has them and the
// scalar loops otherwise; both produce the same bits per element
// (DESIGN.md §9.6). A kernel stops at the first 4-element block with a lane
// outside its guard range; that block and the sub-4 tail take the scalar
// loop, which is also the whole pass on other architectures and under the
// purego build tag.

// Kernels reports which implementation the sampler's passes run in this
// process: "avx2" or "scalar". The choice is made once, at init.
func Kernels() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}

// RadiusPass sets x[i] = math.Sqrt(-2*math.Log(x[i])), the Box-Muller
// radius, bit-identical to that expression for every input.
func RadiusPass(x []float64) {
	for useAVX2 && len(x) >= 4 {
		x = x[radiusAVX2(x):]
		if len(x) >= 4 {
			radiusScalar(x[:4])
			x = x[4:]
		}
	}
	radiusScalar(x)
}

// AnglePass multiplies z[i] by cos2pi(u[i]), the Box-Muller angle, for
// every i < len(z); u must be at least as long as z. Bit-identical to
// z[i] *= cos2pi(u[i]) for every input.
func AnglePass(z, u []float64) {
	u = u[:len(z)]
	for useAVX2 && len(z) >= 4 {
		n := angleAVX2(z, u)
		z, u = z[n:], u[n:]
		if len(z) >= 4 {
			angleScalar(z[:4], u[:4])
			z, u = z[4:], u[4:]
		}
	}
	angleScalar(z, u)
}

// ExpPass sets x[i] = math.Exp(x[i]), bit-identical to math.Exp for every
// input.
func ExpPass(x []float64) {
	for useAVX2 && len(x) >= 4 {
		x = x[expAVX2(x):]
		if len(x) >= 4 {
			expScalar(x[:4])
			x = x[4:]
		}
	}
	expScalar(x)
}

func radiusScalar(x []float64) {
	for i, u := range x {
		x[i] = math.Sqrt(-2 * math.Log(u))
	}
}

// angleScalar takes the angles two per call: cos2pi2 overlaps the two
// serial reduction+polynomial chains, worth ~15% over single calls.
func angleScalar(z, u []float64) {
	u = u[:len(z)]
	j := 0
	for ; j+1 < len(z); j += 2 {
		c0, c1 := cos2pi2(u[j], u[j+1])
		z[j] *= c0
		z[j+1] *= c1
	}
	if j < len(z) {
		z[j] *= cos2pi(u[j])
	}
}

func expScalar(x []float64) {
	for i, v := range x {
		x[i] = math.Exp(v)
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
