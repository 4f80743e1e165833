//go:build amd64 && !purego

package sim

import "math"

// useAVX2 selects the vector kernels: the CPU and OS must support AVX2 and
// FMA (the condition under which math.Exp itself takes its FMA path), and
// the init-time probe must find every kernel equal to its scalar oracle.
var useAVX2 = hasAVX2FMA() && kernelsMatchScalar()

// Implemented in kernels_amd64.s. Each processes whole 4-lane blocks from
// the start of its slice and returns how many elements it finished.
//
//go:noescape
func radiusAVX2(x []float64) int

//go:noescape
func angleAVX2(z, u []float64) int

//go:noescape
func expAVX2(x []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports CPU support for AVX2 and FMA and OS support for the
// YMM register state, as internal/cpu derives HasAVX, HasAVX2 and HasFMA.
func hasAVX2FMA() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}

// probeExpArgs holds exp arguments where math.Exp's FMA and non-FMA paths
// round differently (pinned by TestProbeCatchesNonFMAExp), so the probe also
// fails when math.Exp runs its non-FMA path on an FMA host, as under
// GODEBUG=cpu.fma=off.
var probeExpArgs = [...]float64{-4.417981111008132, -5.703833715800505, -2.4590330252297004, -13.549499538469878}

// kernelsMatchScalar runs each kernel over a fixed vector — pseudo-random
// sampler-range inputs plus the edges of each kernel's range — and reports
// whether every lane equals the scalar oracle's bits.
func kernelsMatchScalar() bool {
	const n = 64
	var u, z, want, got [n]float64
	r := NewRNG(0x5EED)
	for i := range u {
		u[i] = r.Float64()
		z[i] = 1 + r.Float64()
	}
	copy(u[:], []float64{0x1p-53, 1 - 0x1p-53, 0.5, math.Float64frombits(0x3FE6A09E667F3BCD), 0.125, 0.375})

	want, got = u, u
	radiusScalar(want[:])
	if radiusAVX2(got[:]) != n || !sameBits(want[:], got[:]) {
		return false
	}

	want, got = z, z
	angleScalar(want[:], u[:])
	if angleAVX2(got[:], u[:]) != n || !sameBits(want[:], got[:]) {
		return false
	}

	for i := range u {
		want[i] = 20*u[i] - 15
	}
	copy(want[:], probeExpArgs[:])
	copy(want[len(probeExpArgs):], []float64{708, -708, 0, -0.5})
	got = want
	expScalar(want[:])
	return expAVX2(got[:]) == n && sameBits(want[:], got[:])
}
