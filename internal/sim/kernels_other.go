//go:build !amd64 || purego

package sim

// Without the amd64 assembly the sampler's passes are the scalar loops.
const useAVX2 = false

// The vector kernels' stand-ins: never called, since useAVX2 is false.

func radiusAVX2(x []float64) int   { panic("sim: no vector kernels in this build") }
func angleAVX2(z, u []float64) int { panic("sim: no vector kernels in this build") }
func expAVX2(x []float64) int      { panic("sim: no vector kernels in this build") }
