package sim

import (
	"sort"
	"testing"
)

// oracleQuantile is the reference SelectQuantile is pinned against: a
// fresh sorted copy fed to QuantileSorted, exactly what the seed code did.
func oracleQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantileSorted(s, q)
}

// TestSelectQuantileMatchesSortOracle pins selection to the sort oracle
// with exact float equality over randomized inputs and the adversarial
// shapes that break naive pivoting: heavy duplicates, pre-sorted,
// reversed, all-equal, and single-element inputs, across the quantiles
// the repo actually queries plus random ones.
func TestSelectQuantileMatchesSortOracle(t *testing.T) {
	r := NewRNG(0x5E1EC7)
	quantiles := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

	gen := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Float64()
			}
			return xs
		},
		"duplicates": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(4))
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		"all-equal": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 3.25
			}
			return xs
		},
		"negative-mix": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = r.Float64() - 0.5
			}
			return xs
		},
	}

	sizes := []int{1, 2, 3, 7, 100, 601, 2048}
	for name, g := range gen {
		for _, n := range sizes {
			for _, q := range quantiles {
				xs := g(n)
				want := oracleQuantile(xs, q)
				got := SelectQuantile(xs, q)
				if want != got {
					t.Fatalf("%s n=%d q=%v: SelectQuantile = %v, oracle = %v",
						name, n, q, got, want)
				}
			}
		}
	}

	// Randomized sizes and quantiles on top of the fixed grid.
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(700)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * float64(1+r.Intn(3))
		}
		q := r.Float64()
		want := oracleQuantile(xs, q)
		got := SelectQuantile(xs, q)
		if want != got {
			t.Fatalf("trial %d n=%d q=%v: SelectQuantile = %v, oracle = %v",
				trial, n, q, got, want)
		}
	}
}

// TestSelectQuantileEmpty matches Quantile's empty-input contract.
func TestSelectQuantileEmpty(t *testing.T) {
	if got := SelectQuantile(nil, 0.99); got != 0 {
		t.Fatalf("SelectQuantile(nil) = %v, want 0", got)
	}
}

// TestSelectQuantileZeroAllocs pins the selection path to zero heap
// allocations: it runs inside profiling sweeps that are themselves pinned
// allocation-free.
func TestSelectQuantileZeroAllocs(t *testing.T) {
	r := NewRNG(11)
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = r.Float64()
	}
	allocs := testing.AllocsPerRun(100, func() {
		SelectQuantile(xs, 0.99)
	})
	if allocs != 0 {
		t.Fatalf("SelectQuantile allocates %.1f per op, want 0", allocs)
	}
}

// TestSelectQuantileTopMatchesSortOracle pins the partial-multiset entry
// point: handed only the elements >= some threshold (the threshold drawn
// at or below the rank the quantile reads, ties included), it must return
// the oracle's bits over the whole multiset.
func TestSelectQuantileTopMatchesSortOracle(t *testing.T) {
	r := NewRNG(0x70B)
	quantiles := []float64{0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(900)
		xs := make([]float64, n)
		for i := range xs {
			if trial%2 == 0 {
				xs[i] = float64(r.Intn(6)) // heavy ties at the threshold
			} else {
				xs[i] = r.Float64()
			}
		}
		q := quantiles[trial%len(quantiles)]
		want := oracleQuantile(xs, q)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		lo := int(q * float64(n-1))
		tau := s[r.Intn(lo+1)] // any threshold at or below rank lo
		var top []float64
		for _, v := range xs {
			if v >= tau {
				top = append(top, v)
			}
		}
		if got := SelectQuantileTop(top, n, q); got != want {
			t.Fatalf("trial %d n=%d q=%v |top|=%d: SelectQuantileTop = %v, oracle = %v",
				trial, n, q, len(top), got, want)
		}
	}
}

// TestSelectQuantileTopShortPanics pins the precondition: a top set that
// does not reach the quantile's rank is a caller bug, not a wrong answer.
func TestSelectQuantileTopShortPanics(t *testing.T) {
	for _, q := range []float64{0, 0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("q=%v: SelectQuantileTop accepted a short top set", q)
				}
			}()
			SelectQuantileTop([]float64{3, 4}, 10, q)
		}()
	}
}

// TestSelectRank checks the rank selector against a sort.
func TestSelectRank(t *testing.T) {
	r := NewRNG(0x5E1)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(1500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(50))
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		k := r.Intn(n)
		if got := SelectRank(xs, k); got != s[k] {
			t.Fatalf("trial %d: SelectRank(%d) = %v, want %v", trial, k, got, s[k])
		}
	}
}
