// Package benchmarks hosts the measurement hot-path micro benchmarks shared
// by `go test -bench` (benchmarks_test.go) and the `make bench` harness
// (cmd/rhythm-bench), which runs them through testing.Benchmark and emits
// BENCH_engine.json. Keeping the benchmark bodies in a plain (non-test)
// package is what lets one definition serve both entry points.
//
// The benchmarks cover the per-sample unit economics of the measurement
// pipeline:
//
//   - TailTrackerAdd / TailTrackerAddP99: sliding-window insert+evict cost
//     with one sample per timestamp, alone and interleaved with a p99
//     query per sample — a pattern no engine path produces, where every
//     batch holds one sample and every query takes the copy path.
//   - TailTrackerTickP99: the engine's real pattern — one 80-sample batch
//     per 100 ms tick and one p99 every 10 ticks — where queries take the
//     threshold path over the batch top lists.
//   - EngineTick: one full engine tick — sojourn modeling, utilization
//     accounting, SamplesPerTick end-to-end latency draws through the call
//     graph, tail-tracker maintenance.
//   - FleetTick: one fleet epoch over a 100-machine fleet — the parallel
//     per-machine slices plus the serial scheduler barrier — reported
//     both as ns/op and as a machines/s throughput metric (the
//     datacenter-scale gate).
//   - PathP99: the Monte Carlo path-tail estimator used by profiling.
//   - SamplerRadius / SamplerAngle / SamplerExp: the batched lognormal
//     sampler's three transcendental passes over one 512-element chunk,
//     attributing EngineTickSample and PathP99 to the kernel that moved
//     (which implementation runs is sim.Kernels()).
//   - ObsDisabled: every observability emit point with no bus installed —
//     the nil-check path the engine hot loop pays on untraced runs, pinned
//     at 0 allocs/op (TestObsDisabledZeroAllocs).
package benchmarks

import (
	"math"
	"testing"
	"time"

	"rhythm/internal/controller"
	"rhythm/internal/engine"
	"rhythm/internal/fleet"
	"rhythm/internal/loadgen"
	"rhythm/internal/metrics"
	"rhythm/internal/obs"
	"rhythm/internal/queueing"
	"rhythm/internal/sim"
	"rhythm/internal/workload"
)

// benchWindow mirrors the engine's tracker window. The single-sample rows
// space their samples benchSpacing apart for the same steady-state
// occupancy as the default engine configuration (3 s window / 100 ms tick
// * 80 samples = 2400 live samples), but as 2400 one-sample batches;
// TailTrackerTickP99 adds benchTickSamples per benchTick as the engine
// does, 31 batches of 80.
const (
	benchWindow      = 3 * time.Second
	benchSpacing     = 1250 * time.Microsecond // 3s / 2400
	benchTick        = 100 * time.Millisecond
	benchTickSamples = 80
)

// TailTrackerAdd measures the pure insert+evict path at steady-state
// occupancy (~2400 samples), with no quantile queries.
func TailTrackerAdd(b *testing.B) {
	tt := metrics.NewTailTracker(benchWindow)
	rng := sim.NewRNG(2020).Fork("bench-tail-add")
	now := sim.Time(0)
	// Fill to steady state so every measured Add also evicts.
	for i := 0; i < 2400; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
	}
}

// TailTrackerAddP99 interleaves one Add with one P99 query, the worst-case
// pattern for a copy-and-sort tracker: every query pays the full window.
func TailTrackerAddP99(b *testing.B) {
	tt := metrics.NewTailTracker(benchWindow)
	rng := sim.NewRNG(2020).Fork("bench-tail-p99")
	now := sim.Time(0)
	for i := 0; i < 2400; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		now = now.Add(benchSpacing)
		tt.Add(now, rng.Float64())
		sink = tt.P99()
	}
	_ = sink
}

// TailTrackerTickP99 measures one engine tick's worth of tracker work:
// one AddBatch of benchTickSamples lognormal latencies, plus a P99 on
// every tenth tick (the once-per-second window observation). One op is
// one tick. The latencies are drawn up front, cycling through 64 ticks'
// worth, so the row times the tracker and not the RNG.
func TailTrackerTickP99(b *testing.B) {
	tt := metrics.NewTailTracker(benchWindow)
	rng := sim.NewRNG(2020).Fork("bench-tail-tick")
	pool := make([]float64, 64*benchTickSamples)
	for i := range pool {
		pool[i] = math.Exp(rng.NormFloat64())
	}
	now := sim.Time(0)
	tick := func(i int) {
		now = now.Add(benchTick)
		at := i % 64 * benchTickSamples
		tt.AddBatch(now, pool[at:at+benchTickSamples])
	}
	for i := 0; i < int(benchWindow/benchTick)+1; i++ {
		tick(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		tick(i)
		if i%10 == 0 {
			sink = tt.P99()
		}
	}
	_ = sink
}

// EngineTick measures one engine tick of the E-commerce service at a
// constant 70% load: the per-tick sojourn/utilization pass over every pod
// plus SamplesPerTick end-to-end latency samples through the call graph.
func EngineTick(b *testing.B) {
	e, err := engine.New(engine.Config{
		Service: workload.ECommerce(),
		Pattern: loadgen.Constant(0.7),
		Seed:    2020,
	})
	if err != nil {
		b.Fatal(err)
	}
	const dt = 100 * time.Millisecond
	now := sim.Time(0)
	// Warm up past the inertia transient so the measured ticks are
	// steady state, like the bulk of every experiment run.
	for i := 0; i < 100; i++ {
		now = now.Add(dt)
		e.Step(now, 0.7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(dt)
		e.Step(now, 0.7)
	}
}

// engineForPasses builds the EngineTick fixture (E-commerce, constant
// 70%, seed 2020) warmed past the inertia transient, for the per-pass
// sub-benchmarks that attribute the tick's cost to its SoA passes.
func engineForPasses(b *testing.B) (*engine.Engine, sim.Time) {
	e, err := engine.New(engine.Config{
		Service: workload.ECommerce(),
		Pattern: loadgen.Constant(0.7),
		Seed:    2020,
	})
	if err != nil {
		b.Fatal(err)
	}
	const dt = 100 * time.Millisecond
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now = now.Add(dt)
		e.Step(now, 0.7)
	}
	return e, now
}

// enginePass runs one named SoA pass in isolation over the warmed
// EngineTick fixture; together the four passes bound where an EngineTick
// regression lives before anyone reaches for a profiler. Time advances
// one tick per iteration so the sample pass's tail trackers evict at
// steady-state occupancy instead of growing without bound.
func enginePass(b *testing.B, name string) {
	e, now := engineForPasses(b)
	const dt = 100 * time.Millisecond
	if !e.RunPass(name, now, 0.7) {
		b.Fatalf("unknown engine pass %q", name)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(dt)
		e.RunPass(name, now, 0.7)
	}
}

// EngineTickDemand measures the demand gather plus dirty BE re-sync pass.
func EngineTickDemand(b *testing.B) { enginePass(b, "demand") }

// EngineTickInflation measures the pressure map and inertia-smoothed
// inflation pass.
func EngineTickInflation(b *testing.B) { enginePass(b, "inflation") }

// EngineTickSojourn measures the sojourn-cache pass; at constant load the
// key never changes, so this is the steady-state (cache-hit) cost.
func EngineTickSojourn(b *testing.B) { enginePass(b, "sojourn") }

// EngineTickSample measures the sampling pass: the SamplesPerTick×stages
// lognormal draw matrix, the plan combine, and the tail bulk insert —
// the dominant share of EngineTick.
func EngineTickSample(b *testing.B) { enginePass(b, "sample") }

// FleetTick measures one epoch of a 100-machine fleet (25 E-commerce
// replicas under the uniform Heracles policy, constant 60% load): 100
// engines advancing one 2 s control period each plus the shared-queue
// barrier (evictions, dispatch, admissions). Throughput is additionally
// reported as machines/s — machine-epochs advanced per wall second — the
// ROADMAP item 1 scale gate.
func FleetTick(b *testing.B) {
	entries := []fleet.Entry{{
		Service:  workload.ECommerce(),
		Replicas: 25, // 4 components each: 100 machines
		Policy:   controller.NewHeracles(),
	}}
	f, err := fleet.New(fleet.Config{
		Entries:  entries,
		Pattern:  loadgen.Constant(0.6),
		Duration: time.Hour, // nominal; the benchmark drives Step directly
		Seed:     2020,
		Jobs:     1, // single worker: measure the work, not the pool
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm past the engines' inertia transient.
	for i := 0; i < 5; i++ {
		f.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step()
	}
	b.ReportMetric(float64(f.Machines()*b.N)/b.Elapsed().Seconds(), "machines/s")
}

// PathP99 measures the Monte Carlo path-tail estimator over the four-stage
// E-commerce chain with the profiler's default sample count, in the
// scratch-reuse pattern sweeps use (one buffer across all calls).
func PathP99(b *testing.B) {
	svc := workload.ECommerce()
	stages := make([]queueing.Sojourn, 0, len(svc.Components))
	for _, c := range svc.Components {
		stages = append(stages, c.Station.At(0.7*svc.MaxLoadQPS, 1.1, 1.2, 1))
	}
	rng := sim.NewRNG(2020).Fork("bench-pathp99")
	const n = 1000
	// Warm the scratch before the timer: a sweep grows its buffer exactly
	// once, so steady state — the thing worth measuring — is 0 allocs/op
	// (pinned by TestPathP99ZeroAllocs).
	var buf []float64
	var sink float64
	sink, buf = queueing.PathP99Into(buf, stages, n, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, buf = queueing.PathP99Into(buf, stages, n, rng)
	}
	_ = sink
}

// samplerChunk is the batched sampler's chunk extent (sim.sumBatch).
const samplerChunk = 512

// samplerInputs returns one chunk of the inputs each sampler pass sees:
// nonzero uniforms (the radius and angle passes) and exp arguments
// mu + sigma*z over the services' log-space sojourn range.
func samplerInputs() (uniforms, args []float64) {
	rng := sim.NewRNG(2020).Fork("bench-sampler")
	uniforms = make([]float64, samplerChunk)
	args = make([]float64, samplerChunk)
	for i := range uniforms {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		uniforms[i] = u
		args[i] = -4 + 0.5*rng.NormFloat64()
	}
	return uniforms, args
}

// samplerPass times pass over one chunk per op. Each op first restores the
// chunk from src (a 4 KiB copy, part of ns/op), since every pass works in
// place and its output is not a valid input to the next round.
func samplerPass(b *testing.B, src []float64, pass func([]float64)) {
	buf := make([]float64, len(src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		pass(buf)
	}
}

// SamplerRadius measures the Box-Muller radius pass, sqrt(-2 ln u).
func SamplerRadius(b *testing.B) {
	u, _ := samplerInputs()
	samplerPass(b, u, sim.RadiusPass)
}

// SamplerAngle measures the angle pass, z *= cos(2πu), over radii.
func SamplerAngle(b *testing.B) {
	u, _ := samplerInputs()
	z := append([]float64(nil), u...)
	sim.RadiusPass(z)
	samplerPass(b, z, func(buf []float64) { sim.AnglePass(buf, u) })
}

// SamplerExp measures the exp pass over the lognormal arguments.
func SamplerExp(b *testing.B) {
	_, args := samplerInputs()
	samplerPass(b, args, sim.ExpPass)
}

// ObsDisabled measures the full set of observability emit points with no
// bus installed: the Active() load, a zero Scope's event emitters, and
// nil counter/gauge/histogram updates — everything an instrumented hot
// path executes per tick when tracing is off. The contract (pinned by
// TestObsDisabledZeroAllocs and recorded by `make bench`) is 0 allocs/op:
// an untraced run must not pay for the instrumentation's existence.
func ObsDisabled(b *testing.B) {
	obs.Uninstall()
	sc := obs.Active().Scope("bench")
	var (
		c *obs.Counter
		g *obs.Gauge
		h *obs.Histogram
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if obs.Active() != nil {
			b.Fatal("bus installed during disabled-path benchmark")
		}
		sc.Tick(int64(i), 100, 0.7, 700, 80)
		sc.Decision(int64(i), "pod", "AllowBEGrowth", 0.7, 0.2, 0.01, "")
		sc.BE(int64(i), "pod", "be-1", "grow", 2, 4)
		sc.Cache("profile", "key", true)
		sc.Pool(16, 8)
		c.Inc()
		g.Add(1)
		h.Observe(0.5)
	}
}
