//go:build amd64 && !purego

package sim

import (
	"math"
	"testing"
)

// requireFMAExp skips unless the host has the vector kernels' features and
// math.Exp runs its FMA path (GODEBUG=cpu.fma=off turns that path off, and
// the probe then rightly keeps the scalar loops).
func requireFMAExp(t *testing.T) {
	t.Helper()
	if !hasAVX2FMA() {
		t.Skip("host lacks AVX2/FMA; the scalar loops run")
	}
	for _, x := range probeExpArgs {
		if expNoFMA(x) != math.Exp(x) {
			return
		}
	}
	t.Skip("math.Exp runs its non-FMA path in this process")
}

// TestVectorKernelsSelected: on a host with AVX2, FMA and YMM state the
// init-time probe must have accepted the vector kernels — a probe failure
// there silently costs the sampler its speed, not its correctness.
func TestVectorKernelsSelected(t *testing.T) {
	requireFMAExp(t)
	if Kernels() != "avx2" {
		t.Fatal("AVX2+FMA host, but the init-time probe rejected the vector kernels")
	}
}

// TestProbeCatchesNonFMAExp: every fixed exp argument of the probe rounds
// differently on math.Exp's two paths, so a process whose math.Exp runs
// the non-FMA path fails the probe and keeps the scalar loops.
func TestProbeCatchesNonFMAExp(t *testing.T) {
	requireFMAExp(t)
	for _, x := range probeExpArgs {
		if expNoFMA(x) == math.Exp(x) {
			t.Fatalf("probe argument %v rounds the same on both exp paths", x)
		}
	}
}
