// Package metrics implements the measurement side of the evaluation:
// sliding-window tail-latency tracking (the per-second p99 the paper's
// controllers and SLA definition use), utilization accounting, and the
// EMU (effective machine utilization) throughput metric of §5.1.
//
// TailTracker is the hot path: every engine tick adds SamplesPerTick
// samples at one timestamp, and the once-per-second window observation and
// every control tick read the window p99 (DESIGN.md §7.5). The tracker
// stores the window as a ring of tick batches — one timestamp, a count and
// the batch's top four values per batch — over a flat value ring, so
// eviction drops whole batches and a p99 query reads the top lists plus
// the few batches that reach the threshold they imply: about 130 values
// instead of the ~2,480 a copy of the window holds. The results are
// exact, not approximate: every excluded value lies below every collected
// one, so the quantile's rank shifts by a known count and
// sim.SelectQuantileTop returns the bits copy-and-sort would. The
// differential tests in this package pin that against the seed tracker
// (`make exact` runs them).
package metrics

import (
	"fmt"
	"math"
	"time"

	"rhythm/internal/sim"
)

// Strict controls how TailTracker.Add treats a timestamp that runs
// backwards (the simulation contract is non-decreasing time). When false —
// the default — the sample's time is clamped to the latest time already
// seen, so the window can never silently widen; when true, Add panics and
// surfaces the caller bug. Build with -tags rhythmstrict to default to
// panicking.
var Strict = strictDefault

// topR is the length of a batch's top list. A p99 query over the
// engine's window (31 batches of 80) needs the top 26 values; four per
// batch gives 124 candidates, enough that the threshold they imply is
// rarely reached by a batch's fourth value, while keeping the per-value
// upkeep in AddBatch to one compare against top[topR-1].
const topR = 4

// batch is a run of consecutive samples that share one timestamp: n
// values in the value ring from where the previous batch ends.
type batch struct {
	t sim.Time
	n int
}

// topList holds a batch's topR largest values, descending. Only batches
// with more than topR samples have one; a smaller batch is its own top
// list, read straight from the value ring.
type topList [topR]float64

// merge folds vs into the list.
func (top *topList) merge(vs []float64) {
	floor := top[topR-1]
	for _, v := range vs {
		if v <= floor {
			continue
		}
		k := topR - 1
		for k > 0 && top[k-1] < v {
			top[k] = top[k-1]
			k--
		}
		top[k] = v
		floor = top[topR-1]
	}
}

// TailTracker keeps latency samples over a sliding window and reports tail
// percentiles, mirroring the paper's per-second p99 monitoring.
//
// Storage is three power-of-two rings: the sample values in arrival
// order, one batch header per run of equal timestamps, and the top lists
// of the batches larger than topR, in batch order. Eviction drops whole
// batches from the head — every sample in a batch shares its timestamp,
// so this evicts exactly what per-sample eviction would — and recycles
// slots in place, so the footprint is bounded by the window's high-water
// occupancy. A one-sample Add writes a value and a 16-byte header.
type TailTracker struct {
	window time.Duration
	vals   []float64 // value ring; len(vals) is the capacity
	head   int       // index of the oldest live value
	n      int       // live values
	bs     []batch   // batch ring
	bhead  int       // index of the oldest live batch
	nb     int       // live batches
	tops   []topList // top-list ring: one per live batch with n > topR
	thead  int       // index of the oldest live top list
	nt     int       // live top lists
	latest sim.Time  // newest timestamp seen (Add clamps to this)

	// scratch and cand are the query buffers: Quantile gathers the
	// window, or its candidates, into them and partially reorders them in
	// place. Bounded by the window's high-water occupancy, like the rings.
	scratch []float64
	cand    []float64

	// memo caches the last query: the window does not change between
	// ObserveWindow and the control tick that follows it at the same
	// instant. Every add and prune clears memoOK.
	memoOK bool
	memoQ  float64
	memoV  float64

	// paths counts queries by the path they took — [0] threshold, [1]
	// copy — so tests can check that both are exercised.
	paths [2]int

	worstAt sim.Time
	worst   float64
}

// NewTailTracker returns a tracker with the given sliding window.
func NewTailTracker(window time.Duration) *TailTracker {
	if window <= 0 {
		window = time.Second
	}
	return &TailTracker{window: window}
}

// backwards handles a stamp before the latest time seen: the latest time
// when clamping, a panic when Strict.
func (tt *TailTracker) backwards(t sim.Time) sim.Time {
	if Strict {
		panic(fmt.Sprintf("metrics: TailTracker.Add time ran backwards: %v after %v", t, tt.latest))
	}
	return tt.latest
}

// Add records a latency sample observed at time t. Samples must arrive in
// non-decreasing time order (the simulation is single-threaded); a
// backwards t is clamped to the latest time seen, or panics when Strict.
func (tt *TailTracker) Add(t sim.Time, v float64) {
	last := tt.latest
	if t < last {
		t = tt.backwards(t)
	}
	tt.latest = t
	tt.memoOK = false
	if tt.n == len(tt.vals) {
		tt.vals, tt.head = regrow(tt.vals, tt.head, tt.n, tt.n+1), 0
	}
	tt.vals[(tt.head+tt.n)&(len(tt.vals)-1)] = v
	tt.n++
	if tt.nb > 0 && t == last {
		// Same instant as the last batch: nothing can have aged out
		// since the last prune.
		tt.extend(1)
		return
	}
	if tt.nb == len(tt.bs) {
		tt.bs, tt.bhead = regrow(tt.bs, tt.bhead, tt.nb, tt.nb+1), 0
	}
	tt.bs[(tt.bhead+tt.nb)&(len(tt.bs)-1)] = batch{t: t, n: 1}
	tt.nb++
	tt.prune(t)
}

// AddBatch records len(vs) samples all observed at time t, in order. It is
// equivalent to calling Add(t, v) for each v — the engine's sampling pass
// produces a whole tick's draws at one timestamp — but pays the
// clamp/Strict check, the capacity check and the prune exactly once.
func (tt *TailTracker) AddBatch(t sim.Time, vs []float64) {
	if len(vs) == 0 {
		return
	}
	last := tt.latest
	if t < last {
		t = tt.backwards(t)
	}
	tt.latest = t
	tt.memoOK = false
	if tt.n+len(vs) > len(tt.vals) {
		tt.vals, tt.head = regrow(tt.vals, tt.head, tt.n, tt.n+len(vs)), 0
	}
	i := (tt.head + tt.n) & (len(tt.vals) - 1)
	if k := copy(tt.vals[i:], vs); k < len(vs) {
		copy(tt.vals, vs[k:])
	}
	tt.n += len(vs)
	if tt.nb == 0 || t != last {
		if tt.nb == len(tt.bs) {
			tt.bs, tt.bhead = regrow(tt.bs, tt.bhead, tt.nb, tt.nb+1), 0
		}
		tt.bs[(tt.bhead+tt.nb)&(len(tt.bs)-1)] = batch{t: t}
		tt.nb++
	}
	tt.extend(len(vs))
	tt.prune(t)
}

// extend grows the last batch by the k values just appended to the value
// ring, keeping its top list: a batch that now exceeds topR for the first
// time gets one built from all its values, an older one merges the new
// values.
func (tt *TailTracker) extend(k int) {
	b := &tt.bs[(tt.bhead+tt.nb-1)&(len(tt.bs)-1)]
	old := b.n
	b.n += k
	if b.n <= topR {
		return
	}
	var top *topList
	if old > topR {
		top = &tt.tops[(tt.thead+tt.nt-1)&(len(tt.tops)-1)]
	} else {
		if tt.nt == len(tt.tops) {
			tt.tops, tt.thead = regrow(tt.tops, tt.thead, tt.nt, tt.nt+1), 0
		}
		top = &tt.tops[(tt.thead+tt.nt)&(len(tt.tops)-1)]
		tt.nt++
		// Every value beats -Inf, so merging the whole batch fills
		// the list with its topR largest.
		for i := range top {
			top[i] = math.Inf(-1)
		}
		k = b.n
	}
	lo, hi := tt.segment(tt.head+tt.n-k, k)
	top.merge(lo)
	top.merge(hi)
}

// segment returns the k ring values from index at (taken modulo the
// capacity) as at most two slices, in arrival order.
func (tt *TailTracker) segment(at, k int) (lo, hi []float64) {
	at &= len(tt.vals) - 1
	if at+k <= len(tt.vals) {
		return tt.vals[at : at+k], nil
	}
	return tt.vals[at:], tt.vals[:at+k-len(tt.vals)]
}

// regrow returns a copy of ring with room for size entries: the capacity
// doubles (from a floor of 16) until it fits, staying a power of two, and
// the n live entries from head move to the front in order.
func regrow[T any](ring []T, head, n, size int) []T {
	c := max(16, len(ring))
	for c < size {
		c *= 2
	}
	out := make([]T, c)
	for i := range n {
		out[i] = ring[(head+i)&(len(ring)-1)]
	}
	return out
}

// copyWindow copies the live values into dst in arrival order.
func (tt *TailTracker) copyWindow(dst []float64) {
	lo, hi := tt.segment(tt.head, tt.n)
	copy(dst[copy(dst, lo):], hi)
}

// prune drops the batches older than the window.
func (tt *TailTracker) prune(now sim.Time) {
	for tt.nb > 0 {
		b := tt.bs[tt.bhead]
		if now.Sub(b.t) <= tt.window {
			return
		}
		tt.head = (tt.head + b.n) & (len(tt.vals) - 1)
		tt.n -= b.n
		if b.n > topR {
			tt.thead = (tt.thead + 1) & (len(tt.tops) - 1)
			tt.nt--
		}
		tt.bhead = (tt.bhead + 1) & (len(tt.bs) - 1)
		tt.nb--
	}
}

// N returns the number of samples currently in the window.
func (tt *TailTracker) N() int { return tt.n }

// Cap returns the value ring's capacity in samples. It is bounded by twice
// the window's high-water occupancy (plus the 16-slot floor) — the
// regression test for the old tracker's unbounded growth reads it.
func (tt *TailTracker) Cap() int { return len(tt.vals) }

// Quantile returns the q-quantile over the current window (0 when empty),
// bit-identical to sorting a copy of the window and evaluating
// sim.QuantileSorted (the seed tracker's computation).
//
// The quantile reads the window's need = n - floor(q(n-1)) largest
// values. When the top lists — a small batch counting as its own — are
// small against the window and hold at least need values, τ is the
// need-th largest of them; the window's need-th largest is then >= τ, so
// the set X of window values >= τ holds every value the quantile reads,
// and everything outside X is below it. A batch whose fourth-largest
// value is below τ contributes from its top list alone; the rest (about
// 1% of batches at p99) are scanned. sim.SelectQuantileTop then selects
// in X with the rank shifted by n-|X|. Otherwise — single-sample batches,
// q <= 0, top lists as large as a quarter of the window — the query
// copies the window and selects there.
func (tt *TailTracker) Quantile(q float64) float64 {
	if tt.n == 0 {
		return 0
	}
	if tt.memoOK && tt.memoQ == q {
		return tt.memoV
	}
	v := tt.quantile(q)
	tt.memoOK, tt.memoQ, tt.memoV = true, q, v
	return v
}

func (tt *TailTracker) quantile(q float64) float64 {
	n := tt.n
	need := n // values from the top the quantile reads; pos as in SelectQuantileTop
	if q >= 1 {
		need = 1
	} else if q > 0 {
		need = n - int(q*float64(n-1))
	}
	if 4*tt.nb*topR <= n {
		if tau, ok := tt.threshold(need); ok {
			tt.paths[0]++
			return sim.SelectQuantileTop(tt.collect(tau), n, q)
		}
	}
	tt.paths[1]++
	if cap(tt.scratch) < n {
		tt.scratch = make([]float64, n)
	}
	xs := tt.scratch[:n]
	tt.copyWindow(xs)
	return sim.SelectQuantile(xs, q)
}

// threshold returns τ, the need-th largest value among the top lists, or
// false when they hold fewer than need values.
func (tt *TailTracker) threshold(need int) (float64, bool) {
	cand := tt.cand[:0]
	at, ti := tt.head, tt.thead
	for i := 0; i < tt.nb; i++ {
		b := tt.bs[(tt.bhead+i)&(len(tt.bs)-1)]
		if b.n > topR {
			cand = append(cand, tt.tops[ti][:]...)
			ti = (ti + 1) & (len(tt.tops) - 1)
		} else {
			lo, hi := tt.segment(at, b.n)
			cand = append(append(cand, lo...), hi...)
		}
		at += b.n
	}
	tt.cand = cand
	if need > len(cand) {
		return 0, false
	}
	// Ascending rank len-need is the need-th largest.
	return sim.SelectRank(cand, len(cand)-need), true
}

// collect gathers X, every window value >= tau, into scratch.
func (tt *TailTracker) collect(tau float64) []float64 {
	xs := tt.scratch[:0]
	at, ti := tt.head, tt.thead
	for i := 0; i < tt.nb; i++ {
		b := tt.bs[(tt.bhead+i)&(len(tt.bs)-1)]
		if b.n > topR {
			top := &tt.tops[ti]
			ti = (ti + 1) & (len(tt.tops) - 1)
			if top[topR-1] < tau {
				// Every value of the batch >= tau is in its top list.
				xs = appendAtLeast(xs, top[:], tau)
				at += b.n
				continue
			}
		}
		lo, hi := tt.segment(at, b.n)
		xs = appendAtLeast(appendAtLeast(xs, lo, tau), hi, tau)
		at += b.n
	}
	tt.scratch = xs
	return xs
}

// appendAtLeast appends the values of vs that are >= tau to xs.
func appendAtLeast(xs, vs []float64, tau float64) []float64 {
	for _, v := range vs {
		if v >= tau {
			xs = append(xs, v)
		}
	}
	return xs
}

// P99 returns the 99th percentile over the current window.
func (tt *TailTracker) P99() float64 { return tt.Quantile(0.99) }

// ObserveWindow records the current window p99 at time t into the running
// worst-case (the paper's SLA definition: worst per-second p99).
func (tt *TailTracker) ObserveWindow(t sim.Time) {
	p := tt.P99()
	if p > tt.worst {
		tt.worst = p
		tt.worstAt = t
	}
}

// Worst returns the worst window p99 observed so far and when it occurred.
func (tt *TailTracker) Worst() (float64, sim.Time) { return tt.worst, tt.worstAt }

// ResetWorst clears the running worst-case (used between profiling phases).
func (tt *TailTracker) ResetWorst() { tt.worst, tt.worstAt = 0, 0 }

// EMU is the effective machine utilization of §5.1:
// LC throughput (load normalized to max load) plus BE throughput (jobs
// finished per hour normalized to a solo machine run). It may exceed 1.
func EMU(lcLoadFrac, beThroughput float64) float64 {
	if lcLoadFrac < 0 {
		lcLoadFrac = 0
	}
	if beThroughput < 0 {
		beThroughput = 0
	}
	return lcLoadFrac + beThroughput
}

// Usage accumulates time-weighted utilization of one quantity.
type Usage struct {
	weighted float64 // integral of utilization over time
	duration float64 // total observed seconds
}

// Observe records utilization u (0..1+) held for dt.
func (u *Usage) Observe(util float64, dt time.Duration) {
	if dt <= 0 {
		return
	}
	s := dt.Seconds()
	u.weighted += util * s
	u.duration += s
}

// Mean returns the time-weighted mean utilization (0 when nothing was
// observed).
func (u *Usage) Mean() float64 {
	if u.duration == 0 {
		return 0
	}
	return u.weighted / u.duration
}

// Series is a named time series collected during a run (Fig. 17's rows).
type Series struct {
	Name   string
	Times  []float64 // seconds
	Values []float64
}

// Append adds one point.
func (s *Series) Append(t sim.Time, v float64) {
	s.Times = append(s.Times, t.Seconds())
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Max returns the maximum value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of the values.
func (s *Series) Mean() float64 { return sim.Mean(s.Values) }
