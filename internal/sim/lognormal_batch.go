package sim

// sumBatch is the element extent of one sampler chunk: the stack scratch
// (4 KiB per array) stays in L1 while the passes stream over it.
const sumBatch = 512

// SumLognormals fills dst with len(dst) independent path sums over the
// per-stage lognormal parameters mu and sigma (log-space, as returned by
// Lognormal.LogParams):
//
//	dst[i] = Σ_s exp(mu[s] + sigma[s] * z_{i,s})
//
// where z_{i,s} are standard normal draws from r.
//
// The draw order is frozen (see RNG.NormFloat64): draw-major,
// stage-minor — for each path sum i, one normal per stage s in stage
// order — exactly the uniform stream a plain `for each i { for each s {
// dist.Sample(r) } }` loop consumes, and every produced float is
// bit-identical to that loop's. Byte-determinism of the experiment tables
// depends on both properties.
//
// It is LognormalDraws into stack scratch followed by a left-to-right sum
// of each draw's stages, the association of the plain loop. Zero heap
// allocations.
//
// mu and sigma must have equal length; len(mu) == 0 zero-fills dst.
func SumLognormals(dst []float64, mu, sigma []float64, r *RNG) {
	k := len(mu)
	if len(sigma) != k {
		panic("sim: SumLognormals mu/sigma length mismatch")
	}
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	var vals, cs [sumBatch]float64
	n := len(dst) * k
	i, s, t := 0, 0, 0.0
	for base := 0; base < n; base += sumBatch {
		out := vals[:min(sumBatch, n-base)]
		lognormalRun(out, cs[:], mu, sigma, s, r)
		for _, v := range out {
			t += v
			if s++; s == k {
				dst[i] = t
				i, s, t = i+1, 0, 0
			}
		}
	}
}

// LognormalDraws fills dst with len(dst)/k complete draws over the
// per-stage lognormal parameters mu and sigma (log-space), draw-major and
// stage-minor:
//
//	dst[i*k+s] = exp(mu[s] + sigma[s] * z_{i,s})
//
// where z_{i,s} are standard normal draws from r and k = len(mu). The
// per-stage values are written out individually so the caller can combine
// them with an association other than a left-to-right sum (the engine's
// latency graphs nest chains to the right and take maxima across parallel
// fan-out, so their per-draw combine is not a flat Σ). Every element is
// bit-identical to the plain per-draw loop
// `math.Exp(mu[s] + sigma[s]*r.NormFloat64())` in the same order, and r is
// left at the same stream position.
//
// Internally dst is filled in chunks of sumBatch elements, each in four
// passes: uniforms pulled from r in stream order, the Box-Muller radius,
// the angle times the radius, and exp of mu + sigma*z. The three
// transcendental passes run 4-lane vector kernels where the host has them
// (kernels.go); splitting the work by pass, rather than per draw, is what
// lets them. Zero heap allocations.
//
// mu and sigma must have equal length, and len(dst) must be a multiple of
// k; len(mu) == 0 requires len(dst) == 0 and is a no-op.
func LognormalDraws(dst []float64, mu, sigma []float64, r *RNG) {
	k := len(mu)
	if len(sigma) != k {
		panic("sim: LognormalDraws mu/sigma length mismatch")
	}
	if k == 0 {
		if len(dst) != 0 {
			panic("sim: LognormalDraws dst not a multiple of stage count")
		}
		return
	}
	if len(dst)%k != 0 {
		panic("sim: LognormalDraws dst not a multiple of stage count")
	}
	var cs [sumBatch]float64
	for base := 0; base < len(dst); base += sumBatch {
		out := dst[base:min(base+sumBatch, len(dst))]
		lognormalRun(out, cs[:], mu, sigma, base%k, r)
	}
}

// lognormalRun fills out with the next len(out) elements of the
// draw-major, stage-minor stream out[j] = exp(mu[s'] + sigma[s'] * z_j),
// where the first element is at stage s' = s and each z_j consumes r as
// one NormFloat64 call. cs is scratch of at least len(out) elements.
func lognormalRun(out, cs, mu, sigma []float64, s int, r *RNG) {
	cs = cs[:len(out)]
	// Pass 1: uniforms in the frozen stream order. u1 is redrawn while
	// zero, exactly as NormFloat64 does.
	for j := range out {
		u1 := r.Float64()
		for u1 == 0 {
			u1 = r.Float64()
		}
		out[j] = u1
		cs[j] = r.Float64()
	}
	// Passes 2 and 3: the radius, then times the angle — the single
	// product NormFloat64 forms; out now holds the normal variates.
	RadiusPass(out)
	AnglePass(out, cs)
	// Pass 4: the argument mu + sigma*z as an unfused multiply and add,
	// grouped as Lognormal.Sample groups it, one stage run at a time so
	// every index is provably in bounds; then exp in place.
	for rest := out; len(rest) > 0; s = 0 {
		seg := rest[:min(len(rest), len(mu)-s)]
		m, sg := mu[s:s+len(seg)], sigma[s:s+len(seg)]
		for q, z := range seg {
			seg[q] = m[q] + sg[q]*z
		}
		rest = rest[len(seg):]
	}
	ExpPass(out)
}
