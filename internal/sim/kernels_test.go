package sim

import (
	"math"
	"testing"
)

// The oracles: the scalar expressions the batched sampler's passes must
// reproduce bit-for-bit, written out per element.
func radiusOracle(u float64) float64   { return math.Sqrt(-2 * math.Log(u)) }
func angleOracle(z, u float64) float64 { return z * cos2pi(u) }

// checkPasses runs all three dispatched passes over inputs and fails on
// the first element whose bits differ from its oracle. Each input serves
// as a radius uniform, an angle uniform and an exp argument.
func checkPasses(t *testing.T, in []float64) {
	t.Helper()
	got := append([]float64(nil), in...)
	RadiusPass(got)
	for i, u := range in {
		if want := radiusOracle(u); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("radius(%v) [%d of %d] = %x, want %x", u, i, len(in), math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	z := make([]float64, len(in))
	for i := range z {
		z[i] = 1.25 + float64(i)
	}
	got = append(got[:0], z...)
	AnglePass(got, in)
	for i, u := range in {
		if want := angleOracle(z[i], u); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("angle(%v) [%d of %d] = %x, want %x", u, i, len(in), math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
	got = append(got[:0], in...)
	ExpPass(got)
	for i, x := range in {
		if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("exp(%v) [%d of %d] = %x, want %x", x, i, len(in), math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}

// TestKernelsMatchScalarRandom drives each pass over 50M random inputs
// from its sampler range (2M under -race) against its scalar oracle.
// Chunk lengths cycle through every remainder mod 4, so the scalar tail
// runs too.
func TestKernelsMatchScalarRandom(t *testing.T) {
	total := 50_000_000
	if RaceEnabled || testing.Short() {
		total = 2_000_000
	}
	t.Logf("kernels: %s", Kernels())
	run := func(name string, seed uint64, fill func(r *RNG, in, aux []float64), check func(in, aux, got []float64) int) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := NewRNG(seed)
			in := make([]float64, 4096)
			aux := make([]float64, 4096)
			got := make([]float64, 4096)
			for done, c := 0, 0; done < total; c++ {
				n := len(in) - c%4
				fill(r, in[:n], aux[:n])
				if i := check(in[:n], aux[:n], got[:n]); i >= 0 {
					t.Fatalf("input %v (aux %v): got %x", in[i], aux[i], math.Float64bits(got[i]))
				}
				done += n
			}
		})
	}
	run("radius", 1, func(r *RNG, in, _ []float64) {
		for i := range in {
			u := r.Float64()
			for u == 0 {
				u = r.Float64()
			}
			in[i] = u
		}
	}, func(in, _, got []float64) int {
		copy(got, in)
		RadiusPass(got)
		for i, u := range in {
			if math.Float64bits(got[i]) != math.Float64bits(radiusOracle(u)) {
				return i
			}
		}
		return -1
	})
	run("angle", 2, func(r *RNG, in, aux []float64) {
		for i := range in {
			in[i] = r.Float64()
			aux[i] = 4 * r.Float64()
		}
	}, func(in, aux, got []float64) int {
		copy(got, aux)
		AnglePass(got, in)
		for i, u := range in {
			if math.Float64bits(got[i]) != math.Float64bits(angleOracle(aux[i], u)) {
				return i
			}
		}
		return -1
	})
	run("exp", 3, func(r *RNG, in, _ []float64) {
		// Mostly the sampler's mu + sigma*z range; one in eight drawn
		// across the whole guard range and a little past it.
		for i := range in {
			if i%8 == 0 {
				in[i] = 1440*r.Float64() - 720
				continue
			}
			in[i] = (-12 + 10*r.Float64()) + (2*r.Float64())*r.NormFloat64()
		}
	}, func(in, _, got []float64) int {
		copy(got, in)
		ExpPass(got)
		for i, x := range in {
			if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
				return i
			}
		}
		return -1
	})
}

// TestKernelEdges puts each kernel's edge inputs into every lane of a
// block (and into the scalar tail): the extremes of the uniform range,
// log's sqrt(2)/2 reduction boundary, cos2pi's octant boundaries and
// reduction guard, exp's guard edges near ±708, and the non-finite values
// that must reach the scalar fallback.
func TestKernelEdges(t *testing.T) {
	hs := math.Float64frombits(0x3FE6A09E667F3BCD) // sqrt(2)/2
	edges := []float64{
		0x1p-53, 1 - 0x1p-53, 0.5, 1, 2, 0.25, 0.75,
		hs, math.Nextafter(hs, 0), math.Nextafter(hs, 1), hs / 1024, hs * 0x1p-40,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), 5e-324, 0, math.Copysign(0, -1),
		708, -708, math.Nextafter(708, 0), math.Nextafter(708, 1000),
		math.Nextafter(-708, 0), math.Nextafter(-708, -1000), 709, -709,
		709.782712893384, 709.79, -745.1, -746, 1e-300, -1e-300,
		-0.25, -1, 1 << 30, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Float64frombits(0x7FF8000000000001), math.Inf(1), math.Inf(-1),
	}
	for i := 0; i <= 8; i++ {
		u := float64(i) / 8
		edges = append(edges, u, math.Nextafter(u, 0), math.Nextafter(u, 1))
	}
	redMax := (1 << 29) / (2 * math.Pi)
	edges = append(edges, redMax, math.Nextafter(redMax, 0), math.Nextafter(redMax, 1e9))

	for _, e := range edges {
		for pos := 0; pos < 6; pos++ {
			in := []float64{0.3, 0.6, 0.1, 0.9, 0.45, 0.7}
			in[pos] = e
			checkPasses(t, in)
		}
	}
}

// TestKernelTails runs every length 0..19 — each remainder mod 4 with 0-4
// whole blocks — and a rejected block in mid-slice, after which the
// vector kernels must resume.
func TestKernelTails(t *testing.T) {
	r := NewRNG(4)
	for n := 0; n < 20; n++ {
		in := make([]float64, n)
		for i := range in {
			in[i] = r.Float64()
		}
		checkPasses(t, in)
	}
	in := make([]float64, 23)
	for i := range in {
		in[i] = r.Float64()
	}
	in[5] = math.NaN()
	in[13] = -1
	checkPasses(t, in)
}

// expNoFMA is math/exp_amd64.s's non-FMA path for |x| <= 708: the same
// reduction and Taylor series with every product rounded on its own (the
// explicit float64 conversions forbid fusion on any architecture).
func expNoFMA(x float64) float64 {
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2U  = 0.69314718055966295651160180568695068359375
		ln2L  = 0.28235290563031577122588448175013436025525412068e-12
	)
	k := math.RoundToEven(float64(log2e * x))
	x = x - float64(k*ln2U)
	x = x - float64(k*ln2L)
	x *= 0.0625
	p := 2.4801587301587301587e-5
	for _, c := range []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3,
		8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0} {
		p = float64(p*x) + c
	}
	x = float64(x * p)
	for i := 0; i < 4; i++ {
		x = float64(x * (x + 2))
	}
	return math.Ldexp(x+1, int(k))
}

// TestExpKernelFMARounding finds sampler-range arguments where math.Exp's
// FMA and non-FMA paths round differently and asserts the dispatched exp
// pass equals math.Exp on them: the vector kernel must follow the path
// math.Exp takes on this host, not merely a correct exp. On an FMA host
// (every host the vector kernels run on) such inputs must exist.
func TestExpKernelFMARounding(t *testing.T) {
	const n = 1_000_000
	r := NewRNG(5)
	var diff []float64
	for i := 0; i < n; i++ {
		x := (-12 + 10*r.Float64()) + (2*r.Float64())*r.NormFloat64()
		if expNoFMA(x) != math.Exp(x) {
			diff = append(diff, x)
		}
	}
	t.Logf("kernels %s: %d of %d arguments round differently without FMA", Kernels(), len(diff), n)
	if len(diff) > n/2 {
		t.Fatalf("expNoFMA disagrees with math.Exp on %d of %d arguments: the transliteration is wrong", len(diff), n)
	}
	if Kernels() == "avx2" {
		if len(diff) < n/100 {
			t.Fatalf("only %d FMA-sensitive arguments on a host running the FMA kernels", len(diff))
		}
	}
	got := append([]float64(nil), diff...)
	ExpPass(got)
	for i, x := range diff {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			t.Fatalf("exp pass(%v) = %v, math.Exp = %v", x, got[i], math.Exp(x))
		}
	}
}

// TestSamplersDeepPath covers stage counts above the chunk size, where a
// single draw spans several chunks: both samplers must still match the
// per-draw loop and leave the stream where it leaves it.
func TestSamplersDeepPath(t *testing.T) {
	const k, n = sumBatch + 3, 3
	mu := make([]float64, k)
	sigma := make([]float64, k)
	for s := range mu {
		mu[s], sigma[s] = NewLognormal(0.001*float64(s%7+1), 0.3).LogParams()
	}
	ref := NewRNG(9)
	wantDraws := make([]float64, n*k)
	wantSums := make([]float64, n)
	for i := 0; i < n; i++ {
		for s := 0; s < k; s++ {
			v := math.Exp(mu[s] + sigma[s]*ref.NormFloat64())
			wantDraws[i*k+s] = v
			wantSums[i] += v
		}
	}
	draws := make([]float64, n*k)
	r := NewRNG(9)
	LognormalDraws(draws, mu, sigma, r)
	if !sameBits(draws, wantDraws) || r.Uint64() != refAfter(9, n*k) {
		t.Fatal("LognormalDraws diverged from the per-draw loop on a deep path")
	}
	sums := make([]float64, n)
	r = NewRNG(9)
	SumLognormals(sums, mu, sigma, r)
	if !sameBits(sums, wantSums) || r.Uint64() != refAfter(9, n*k) {
		t.Fatal("SumLognormals diverged from the per-draw loop on a deep path")
	}
}

// refAfter returns the next Uint64 of a seed's stream after draws
// NormFloat64 calls.
func refAfter(seed uint64, draws int) uint64 {
	r := NewRNG(seed)
	for i := 0; i < draws; i++ {
		r.NormFloat64()
	}
	return r.Uint64()
}

// fuzzLanes places x in every lane of a block and in the tail element,
// runs pass over a copy and reports the first element differing from
// oracle.
func fuzzLanes(t *testing.T, x, fill float64, pass func([]float64), oracle func(float64) float64) {
	for pos := 0; pos < 5; pos++ {
		in := []float64{fill, fill, fill, fill, fill}
		in[pos] = x
		got := append([]float64(nil), in...)
		pass(got)
		for i, v := range in {
			if want := oracle(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("input %v at lane %d: got %x, want %x", v, i, math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

func FuzzExpKernel(f *testing.F) {
	for _, x := range []float64{0, 1, -1, 708, -708, 709.8, math.NaN(), math.Inf(1)} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		fuzzLanes(t, x, -3.5, ExpPass, math.Exp)
	})
}

func FuzzRadiusKernel(f *testing.F) {
	for _, u := range []float64{0x1p-53, 1 - 0x1p-53, 0.5, 0, -1, math.NaN()} {
		f.Add(u)
	}
	f.Fuzz(func(t *testing.T, u float64) {
		fuzzLanes(t, u, 0.3, RadiusPass, radiusOracle)
	})
}
