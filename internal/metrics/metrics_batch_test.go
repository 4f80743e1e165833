package metrics

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"rhythm/internal/sim"
)

// batchQuantiles are the quantiles the batch-ring tests probe: both ends
// (copy path), the medians, and the tail the engine actually reads.
var batchQuantiles = []float64{0, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999, 1}

// sorted returns the oracle's window ascending, so one sort serves every
// quantile probed at a step.
func (rt *refTracker) sorted() []float64 {
	s := append([]float64(nil), rt.values...)
	sort.Float64s(s)
	return s
}

// checkAgainstRef compares every probed quantile — twice, so a memoised
// answer is checked too — and the live count against the oracle.
func checkAgainstRef(t *testing.T, tt *TailTracker, ref *refTracker, qs []float64, where string) {
	t.Helper()
	if tt.N() != len(ref.values) {
		t.Fatalf("%s: N = %d, ref %d", where, tt.N(), len(ref.values))
	}
	s := ref.sorted()
	for _, q := range qs {
		want := sim.QuantileSorted(s, q)
		for rep := 0; rep < 2; rep++ {
			if got := tt.Quantile(q); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: quantile(%v) = %v, ref %v (rep %d)", where, q, got, want, rep)
			}
		}
	}
}

// TestTailTrackerEnginePattern is the differential test for the batch
// ring on the engine's access pattern: one batch of equal-stamped samples
// per 100 ms tick through a 3 s window, queried every tick. Batch sizes
// straddle topR and the cost rule's boundary; values alternate between
// coarse integers (ties, including ties at the threshold, which force
// batch scans) and lognormal draws; stamps include window-flushing gaps,
// backwards (clamped) stamps, and repeats that append to the last batch,
// either through AddBatch or through single Adds.
func TestTailTrackerEnginePattern(t *testing.T) {
	const window = 3 * time.Second
	var paths [2]int
	for _, size := range []int{topR - 1, topR, topR + 1, 4 * topR, 4*topR + 1, 80, 200} {
		tt := NewTailTracker(window)
		ref := &refTracker{window: window}
		rng := sim.NewRNG(17).Fork("engine-pattern")
		now := sim.Time(0)
		vs := make([]float64, size)
		for tick := 0; tick < 3000; tick++ {
			switch r := rng.Float64(); {
			case r < 0.005:
				now = now.Add(2 * window) // flushes the window
			case r < 0.02:
				now = now.Add(-50 * time.Millisecond) // clamped
			case r < 0.05:
				// Same stamp: appends to the last batch.
			default:
				now = now.Add(100 * time.Millisecond)
			}
			for i := range vs {
				if tick%3 == 0 {
					vs[i] = float64(rng.Intn(8))
				} else {
					vs[i] = math.Exp(rng.NormFloat64())
				}
			}
			if rng.Float64() < 0.1 {
				for _, v := range vs {
					tt.Add(now, v)
				}
			} else {
				tt.AddBatch(now, vs)
			}
			for _, v := range vs {
				ref.add(now, v)
			}
			checkAgainstRef(t, tt, ref, batchQuantiles, fmt.Sprintf("size %d tick %d", size, tick))
		}
		if size >= 80 && tt.paths[0] == 0 {
			t.Fatalf("size %d: threshold path never ran", size)
		}
		paths[0] += tt.paths[0]
		paths[1] += tt.paths[1]
	}
	if paths[0] == 0 || paths[1] == 0 {
		t.Fatalf("query paths taken: threshold %d, copy %d; both must run", paths[0], paths[1])
	}
}

// TestTailTrackerMetamorphic checks two invariances of an exact order
// statistic on the engine pattern: scaling every sample by 2^k scales
// every quantile by exactly 2^k (power-of-two scaling commutes with
// rounding), and permuting the values within a batch changes no
// quantile.
func TestTailTrackerMetamorphic(t *testing.T) {
	const window = 3 * time.Second
	base := NewTailTracker(window)
	perm := NewTailTracker(window)
	scales := []float64{0x1p-7, 0x1p3, 0x1p40}
	scaled := make([]*TailTracker, len(scales))
	for i := range scaled {
		scaled[i] = NewTailTracker(window)
	}
	rng := sim.NewRNG(19).Fork("metamorphic")
	vs := make([]float64, 80)
	ws := make([]float64, len(vs))
	now := sim.Time(0)
	for tick := 0; tick < 600; tick++ {
		now = now.Add(100 * time.Millisecond)
		for i := range vs {
			vs[i] = math.Exp(rng.NormFloat64())
			if tick%4 == 0 {
				vs[i] = float64(rng.Intn(5))
			}
		}
		base.AddBatch(now, vs)
		for i, k := range scales {
			for j, v := range vs {
				ws[j] = v * k
			}
			scaled[i].AddBatch(now, ws)
		}
		copy(ws, vs)
		rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		perm.AddBatch(now, ws)
		for _, q := range batchQuantiles {
			want := base.Quantile(q)
			if got := perm.Quantile(q); got != want {
				t.Fatalf("tick %d: permuted quantile(%v) = %v, want %v", tick, q, got, want)
			}
			for i, k := range scales {
				if got := scaled[i].Quantile(q); got != want*k {
					t.Fatalf("tick %d: quantile(%v) scaled by %v = %v, want %v", tick, q, k, got, want*k)
				}
			}
		}
	}
}

// FuzzTailTracker drives the tracker and the copy-and-sort oracle with
// the same byte-decoded stream of batches and compares a quantile after
// every batch. Each batch takes three header bytes — stamp step, batch
// size, quantile — then one byte per value.
func FuzzTailTracker(f *testing.F) {
	f.Add([]byte("\x01\x50\x63" + string(make([]byte, 80)) + "\x01\x50\xff"))
	f.Add([]byte("\x00\x03\x10abc\x00\x05\x80hello\xfe\x02\x00zz\x40\x01\x63q"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const window = 400 * time.Millisecond
		tt := NewTailTracker(window)
		ref := &refTracker{window: window}
		now := sim.Time(0)
		var vs []float64
		for len(data) >= 3 {
			step, size, qb := data[0], int(data[1]), data[2]
			data = data[3:]
			switch {
			case step >= 0xf0:
				now = now.Add(-time.Duration(step-0xef) * time.Millisecond) // clamped
			case step >= 0xe0:
				now = now.Add(2 * window)
			default:
				now = now.Add(time.Duration(step%32) * 10 * time.Millisecond)
			}
			size = 1 + size%120
			if size > len(data) {
				size = len(data)
			}
			vs = vs[:0]
			for _, b := range data[:size] {
				vs = append(vs, float64(b%64)*0.25)
			}
			data = data[size:]
			if qb&1 == 1 {
				for _, v := range vs {
					tt.Add(now, v)
				}
			} else {
				tt.AddBatch(now, vs)
			}
			for _, v := range vs {
				ref.add(now, v)
			}
			q := float64(qb) / 255
			checkAgainstRef(t, tt, ref, []float64{q, 0.99}, "fuzz")
		}
	})
}
