package sim

import "math"

// SelectQuantile returns exactly what sorting xs ascending and calling
// QuantileSorted would return, without the sort: a Floyd–Rivest partial
// selection materializes just the one or two order statistics the
// interpolation reads, so the cost is O(n) instead of O(n log n). The
// Monte Carlo tail estimator (queueing.PathEstimator) and the profiling
// statistics path call this once per estimate over fresh random data,
// where a full sort's comparison branches mispredict heavily.
//
// xs is partially reordered in place (the selection's partition order,
// which is unspecified); callers that need the original order must copy
// first — Quantile does exactly that and remains the copying entry point.
// Inputs must be NaN-free: selection uses plain < comparisons, while
// sort.Float64s orders NaNs first. Every producer in this repository
// (latency samples, path sums) is NaN-free by construction.
//
// An empty xs returns 0, like Quantile.
func SelectQuantile(xs []float64, q float64) float64 {
	return SelectQuantileTop(xs, len(xs), q)
}

// SelectQuantileTop is SelectQuantile over an n-element multiset of which
// the caller passes only the top: xs must hold every element >= some
// threshold and nothing else, and every omitted element must be below it.
// The omitted n-len(xs) elements then occupy the bottom ranks, so rank r of
// the multiset is rank r-(n-len(xs)) of xs and the result is bit-identical
// to SelectQuantile over the whole multiset. xs must reach down to the
// interpolation's lower rank: len(xs) >= n - floor(q*(n-1)), which is all
// of it for q <= 0. metrics.TailTracker calls this with the values at or
// above a threshold read off its per-batch top lists.
//
// xs is partially reordered in place. n == 0 returns 0.
func SelectQuantileTop(xs []float64, n int, q float64) float64 {
	if n == 0 {
		return 0
	}
	off := n - len(xs)
	if q <= 0 {
		if off != 0 {
			panic("sim: SelectQuantileTop: q <= 0 needs the whole multiset")
		}
		return minOf(xs)
	}
	if q >= 1 {
		return maxOf(xs)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	k := lo - off
	if k < 0 {
		panic("sim: SelectQuantileTop: xs does not reach the quantile's rank")
	}
	lower := SelectRank(xs, k)
	if lo == hi {
		return lower
	}
	// After selection everything right of k is >= xs[k], so the next
	// order statistic is the minimum of that suffix — one linear scan
	// instead of a second selection.
	next := minOf(xs[k+1:])
	frac := pos - float64(lo)
	// The interpolation expression mirrors QuantileSorted exactly; the
	// differential test pins equality bit-for-bit.
	return lower*(1-frac) + next*frac
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// SelectRank partially reorders xs so that xs[k] holds its k-th smallest
// element (0-based) and returns it: everything left of k is <= xs[k] and
// everything right of it is >= xs[k]. It is the classic Floyd–Rivest
// SELECT (CACM 18(3), 1975) — deterministic, no RNG involvement (the
// estimator must not perturb any simulation stream). Inputs must be
// NaN-free, as for SelectQuantile.
func SelectRank(xs []float64, k int) float64 {
	frSelect(xs, 0, len(xs)-1, k)
	return xs[k]
}

func frSelect(a []float64, left, right, k int) {
	for right > left {
		if right-left > 600 {
			// On large ranges, recursively select within a sampled
			// sub-interval first so a[k] becomes a near-exact pivot for
			// the partition below; this is what bounds the expected
			// comparison count at n + min(k, n-k) + o(n).
			n := float64(right - left + 1)
			i := float64(k-left) + 1
			z := math.Log(n)
			s := 0.5 * math.Exp(2*z/3)
			sd := 0.5 * math.Sqrt(z*s*(n-s)/n)
			if i < n/2 {
				sd = -sd
			}
			nl := left
			if v := int(float64(k) - i*s/n + sd); v > nl {
				nl = v
			}
			nr := right
			if v := int(float64(k) + (n-i)*s/n + sd); v < nr {
				nr = v
			}
			frSelect(a, nl, nr, k)
		}
		// Hoare partition around the current a[k], with the pivot parked
		// at the ends (Floyd–Rivest's arrangement keeps duplicates from
		// degrading the split).
		t := a[k]
		i, j := left, right
		a[i], a[k] = a[k], a[i]
		if a[j] > t {
			a[i], a[j] = a[j], a[i]
		}
		for i < j {
			a[i], a[j] = a[j], a[i]
			i++
			j--
			for a[i] < t {
				i++
			}
			for a[j] > t {
				j--
			}
		}
		if a[left] == t {
			a[left], a[j] = a[j], a[left]
		} else {
			j++
			a[j], a[right] = a[right], a[j]
		}
		if j <= k {
			left = j + 1
		}
		if k <= j {
			right = j - 1
		}
	}
}
