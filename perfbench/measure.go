package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"rhythm/internal/fleet"
	"rhythm/internal/obs"
)

// setupFunc runs one cold offline phase of a workload. rep counts the
// set-up repetitions of a run; the last one (rep == opts.setupReps-1) uses
// the seeds the online phase runs at, the others distinct seeds derived
// from opts.seed so that the simulator's content-keyed profile cache never
// turns a repetition into a lookup.
type setupFunc func(opts options, rep int, sp *spans) (state, error)

// state is the product of one offline phase.
type state interface {
	// checkSetup validates the offline outcome, one check per deployed
	// service, and returns its digest text.
	checkSetup(res *result) string
	// round runs one fixed unit of online work. It times only the online
	// calls; per-round preparation (a fresh experiment context, a fresh
	// fleet) stays outside the timed section.
	round(opts options) (*roundOut, error)
}

// roundOut is one round of online work.
type roundOut struct {
	timing
	ops []opOut
	// digest covers every simulated outcome of the round, one
	// "<name> <sha256>" line per table, run or scorecard. Table cells that
	// print a negative zero are hashed unsigned (see unsignedZeros).
	digest string
	// rawDigest is digest with every table cell hashed as printed (paper
	// only; empty elsewhere).
	rawDigest string
	// viol and goodput are the simulated SLA-violation seconds and BE
	// goodput under Rhythm (hasSim false on paper, which reports neither).
	hasSim        bool
	viol, goodput float64
	// queue is the fleet's shared BE queue (fleet only).
	queue *fleet.QueueStats
	// epochs is the number of fleet epochs stepped (fleet only).
	epochs int
	// checks are untimed output checks (the golden pin, a fleet's
	// scorecard); they count in attempted and failed like ops.
	checks []opOut
	// info is extra plain-text output (the golden check).
	info []string
}

// opOut is one timed operation: an experiment, a co-location run or a
// fleet epoch. err is non-nil when the op failed or its output check did.
type opOut struct {
	name string
	ms   float64
	err  error
}

// timing is the host cost of a span of work.
type timing struct {
	wall, cpu time.Duration
	mem       memDelta
}

// stopwatch measures wall time, process CPU (user+sys) and the runtime's
// memory statistics over a span. The memory statistics are read outside
// the timed interval.
type stopwatch struct {
	mem   runtime.MemStats
	start time.Time
	cpu   time.Duration
}

// startWatch collects the heap first, so that garbage left by the previous
// span or by untimed preparation is not collected, and billed, inside this
// one.
func startWatch() stopwatch {
	runtime.GC()
	s := stopwatch{mem: readMem()}
	s.start, s.cpu = time.Now(), processCPU()
	return s
}

func (s stopwatch) stop() timing {
	t := timing{wall: time.Since(s.start), cpu: processCPU() - s.cpu}
	t.mem = memSince(s.mem)
	return t
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, which
// peakRSSMB reads, from the current resident set (Linux 4.0 and later).
// Reset before each round, a round's peak is its own: set-up's peak is a
// short spike whose height depends on garbage-collector timing (12 to 20
// MB for identical paper set-ups).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// minRounds is the fewest rounds a run measures, so that no per-round
// median rests on a single round.
const minRounds = 2

// phases is what the untraced run measured.
type phases struct {
	rounds []*roundOut
	// setupS is the median wall time of the cold set-ups.
	setupS float64
	// setupDigest is the digest of the set-up whose state the rounds use.
	setupDigest string
	// peakRSS holds each round's peak resident set, in MiB.
	peakRSS []float64
}

// runPhases times opts.setupReps cold offline phases and runs whole online
// rounds until their timed work adds up to opts.seconds and at least
// opts.minRounds rounds have run. The set-up whose state the rounds use
// (the last repetition) runs first, and each of the others runs after a
// round. The host's speed drifts over tens of seconds, so rounds spread
// across the run sample more of that drift than rounds bunched at its end,
// and their median moves less from run to run. Every round must reproduce
// the first one's simulated outcomes.
func runPhases(setup setupFunc, opts options, res *result) (*phases, error) {
	var walls []float64
	cold := func(rep int) (state, error) {
		sw := startWatch()
		s, err := setup(opts, rep, nil)
		t := sw.stop()
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", rep, err)
		}
		walls = append(walls, seconds(t.wall))
		return s, nil
	}
	online := opts.setupReps - 1
	st, err := cold(online)
	if err != nil {
		return nil, err
	}
	out := &phases{setupDigest: st.checkSetup(res)}
	var measured time.Duration
	for rep := 0; rep < online || len(out.rounds) < opts.minRounds || measured < time.Duration(opts.seconds)*time.Second; {
		if err := resetPeakRSS(); err != nil && len(out.rounds) == 0 {
			res.info = append(res.info, fmt.Sprintf("peak_rss_mb includes set-up: %v", err))
		}
		r, err := st.round(opts)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(out.rounds), err)
		}
		out.peakRSS = append(out.peakRSS, peakRSSMB())
		measured += r.wall
		recordOps(r, res)
		if len(out.rounds) > 0 {
			compareRounds(fmt.Sprintf("round %d digest", len(out.rounds)), out.rounds[0], r, res)
		}
		out.rounds = append(out.rounds, r)
		if rep < online {
			s, err := cold(rep)
			if err != nil {
				return nil, err
			}
			s.checkSetup(res)
			rep++
		}
	}
	out.setupS = median(walls)
	return out, nil
}

func recordOps(r *roundOut, res *result) {
	for _, op := range append(r.ops, r.checks...) {
		res.check(op.name, op.err)
	}
}

// compareRounds checks that got reproduces want's simulated outcomes. A
// difference only in the sign of a printed zero does not fail the check;
// it is reported as an info line, because it is the program's known
// map-order defect (see unsignedZeros), not a different outcome.
func compareRounds(what string, want, got *roundOut, res *result) {
	err := sameDigest(want.digest, got.digest)
	res.check(what, err)
	if err == nil && want.rawDigest != got.rawDigest {
		res.info = append(res.info, fmt.Sprintf("%s: sign of a zero cell only: %v (RunStats.Mean* sum in map order)",
			what, sameDigest(want.rawDigest, got.rawDigest)))
	}
}

// sameDigest compares two round digests, which hold one "<name> <hash>"
// line per table, run or scorecard, and names the lines that differ.
func sameDigest(want, got string) error {
	if want == got {
		return nil
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var differ []string
	for i := 0; i < len(w) || i < len(g); i++ {
		if i >= len(w) || i >= len(g) || w[i] != g[i] {
			name, _, _ := strings.Cut(w[min(i, len(w)-1)], " ")
			differ = append(differ, name)
		}
	}
	return fmt.Errorf("simulated outcomes differ in %s", strings.Join(differ, ", "))
}

// runDigest combines the offline and online digests into the run's
// digest of simulated outcomes.
func runDigest(setup, round string) string {
	h := sha256.Sum256([]byte(setup + "\n" + round))
	return hex.EncodeToString(h[:])
}

// measure is the untraced run: the end-to-end metrics.
func measure(setup setupFunc, opts options) (*result, error) {
	res := newResult()
	ph, err := runPhases(setup, opts, res)
	if err != nil {
		return nil, err
	}
	rounds := ph.rounds
	// Every host metric is a per-round figure, medianed over the rounds.
	// A round's median op, not the median of all ops pooled: paper's 20
	// experiments split into a cluster near 0 ms and one above 20 ms with
	// the middle between them, where a pooled median is the largest of one
	// half or the smallest of the other and jumps with either.
	var walls, cpus, opP50s, opsMS []float64
	for _, r := range rounds {
		walls = append(walls, seconds(r.wall))
		cpus = append(cpus, seconds(r.cpu))
		var ms []float64
		for _, op := range r.ops {
			ms = append(ms, op.ms)
		}
		opP50s = append(opP50s, median(ms))
		opsMS = append(opsMS, ms...)
	}
	res.digest = runDigest(ph.setupDigest, rounds[0].digest)
	res.info = append(res.info, rounds[0].info...)
	res.set("setup_s", ph.setupS, "s", labelHost)
	res.set("wall_s", median(walls), "s", labelHost)
	res.set("cpu_s", median(cpus), "s", labelHost)
	res.set("op_p50_ms", median(opP50s), "ms", labelHost)
	res.set("peak_rss_mb", median(ph.peakRSS), "MB", labelHost)
	// The rest are printed for people, not in the result line: fail_ratio
	// is 0 on a healthy run and the simulated outcomes are not host
	// measurements (the traced run reports them as sim.*).
	res.info = append(res.info, fmt.Sprintf("rounds %d, ops %d", len(rounds), len(opsMS)))
	if len(opsMS) >= 100 {
		res.set("op_p90_ms", quantile(opsMS, 0.9), "ms", labelInfo)
	}
	res.set("fail_ratio", float64(res.failed)/float64(res.attempted), "ratio", labelInfo)
	if r := rounds[0]; r.hasSim {
		res.set("viol_s", r.viol, "simulated_s", labelInfo)
		res.set("be_goodput", r.goodput, "simulated", labelInfo)
	}
	return res, nil
}

// spans records benchmark-side spans around public calls in a traced run:
// the wall time of each service's deployment. A nil *spans records
// nothing.
type spans struct {
	mu      sync.Mutex
	deployS map[string]float64
}

func (sp *spans) deploy(service string, d time.Duration) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.deployS[service] += seconds(d)
	sp.mu.Unlock()
}

// memDelta is the change of the runtime's memory statistics over a span.
type memDelta struct {
	allocMB float64
	mallocs uint64
	gcs     uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     after.NumGC - before.NumGC,
	}
}

// measureTraced is the traced run: the per-layer metrics. It runs four
// phases, each once:
//
//  1. an untraced cold set-up at repetition 0's seeds (CPU profile A),
//  2. a traced cold set-up at the online seeds (bus installed, profile B),
//  3. an untraced round (profile A),
//  4. a traced round of the same work (profile B).
//
// Phases 1 and 3 give the utilisation, memory and CPU-share rows without
// tracing overhead (a round's memory rows cover its timed calls only); phases 2 and 4 give the event counts and wall-clock
// brackets. Phase 4 must reproduce phase 3's simulated outcomes, and the
// digest of phases 2 and 4 equals the untraced run's digest for the seed.
func measureTraced(setup setupFunc, opts options) (*result, error) {
	res := newResult()
	prof, err := newCPUProfiler(opts.workdir)
	if err != nil {
		return nil, err
	}

	// 1. Untraced cold set-up.
	if err := prof.start("a-setup"); err != nil {
		return nil, err
	}
	sw := startWatch()
	st0, err := setup(opts, 0, nil)
	setupT := sw.stop()
	prof.stop()
	if err != nil {
		return nil, fmt.Errorf("untraced setup: %w", err)
	}
	setupPeak := peakRSSMB()
	st0.checkSetup(res)

	// 2. Traced cold set-up.
	sink := newSink()
	bus := obs.NewBus(sink)
	sp := &spans{deployS: make(map[string]float64)}
	obs.Install(bus)
	if err := prof.start("b-setup"); err != nil {
		obs.Uninstall()
		return nil, err
	}
	st, err := setup(opts, opts.setupReps-1, sp)
	prof.stop()
	obs.Uninstall()
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	setupDigest := st.checkSetup(res)
	setupEvents := sink.snapshot()

	// 3. Untraced round.
	if err := prof.start("a-steady"); err != nil {
		return nil, err
	}
	plain, err := st.round(opts)
	prof.stop()
	if err != nil {
		return nil, fmt.Errorf("untraced round: %w", err)
	}
	recordOps(plain, res)
	res.info = append(res.info, plain.info...)

	// 4. Traced round.
	obs.Install(bus)
	if err := prof.start("b-steady"); err != nil {
		obs.Uninstall()
		return nil, err
	}
	traced, err := st.round(opts)
	prof.stop()
	obs.Uninstall()
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	if err := bus.Close(); err != nil {
		return nil, err
	}
	steadyEvents := sink.snapshot()
	for _, op := range append(traced.ops, traced.checks...) {
		res.check("traced "+op.name, op.err)
	}
	compareRounds("traced round reproduces the untraced round", plain, traced, res)
	res.digest = runDigest(setupDigest, traced.digest)

	sharesA, err := prof.fold("a-setup", "a-steady")
	if err != nil {
		return nil, err
	}
	sharesB, err := prof.fold("b-setup", "b-steady")
	if err != nil {
		return nil, err
	}

	w := float64(opts.workers)
	res.set("pool.util_setup", seconds(setupT.cpu)/(seconds(setupT.wall)*w), "ratio", labelHost)
	res.set("pool.util_steady", seconds(plain.cpu)/(seconds(plain.wall)*w), "ratio", labelHost)
	res.set("mem.alloc_mb_setup", setupT.mem.allocMB, "MB", labelHost)
	res.set("mem.peak_rss_mb_setup", setupPeak, "MB", labelHost)
	res.set("mem.alloc_mb_steady", plain.mem.allocMB, "MB", labelHost)
	res.set("mem.gc_cycles", float64(plain.mem.gcs), "count", labelHost)
	res.set("trace.overhead_ratio", seconds(traced.wall)/seconds(plain.wall), "ratio", labelHost)
	res.set("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count", labelHost)
	res.set("host.workers", float64(opts.workers), "count", labelHost)
	allocsPerEpoch := 0.0
	if plain.epochs > 0 {
		allocsPerEpoch = float64(plain.mem.mallocs) / float64(plain.epochs)
	}
	res.set("fleet.allocs_per_epoch", allocsPerEpoch, "count", labelHost)

	for _, svc := range serviceNames() {
		res.set("profiler.deploy_s."+svc, sp.deployS[svc], "s", labelHost)
	}
	total := setupEvents.add(steadyEvents)
	total.report(res)
	cpuPerTick := 0.0
	if ticks := steadyEvents.n["engine.ticks"]; ticks > 0 {
		cpuPerTick = float64(plain.cpu.Microseconds()) / ticks
	}
	res.set("engine.cpu_us_per_tick", cpuPerTick, "us", labelHost)
	steadyEvents.reportExperiments(res)
	steadyEvents.reportEpochs(res)

	for _, row := range cpuRows {
		res.set(row.name, shareOf(sharesA, row.fns), "share", labelHost)
	}
	res.set("cpu.obs.Bus.publish", sharesB[publishFn], "share", labelHost)

	viol, goodput := 0.0, 0.0
	if traced.hasSim {
		viol, goodput = traced.viol, traced.goodput
	}
	res.set("sim.viol_s", viol, "simulated_s", labelSim)
	res.set("sim.be_goodput", goodput, "simulated", labelSim)
	reportQueue(res, traced.queue)
	return res, nil
}

// reportQueue adds the simulated scheduler rows (zero off the fleet).
func reportQueue(res *result, q *fleet.QueueStats) {
	if q == nil {
		q = &fleet.QueueStats{}
	}
	rejected := 0.0
	if q.Submitted > 0 {
		rejected = float64(q.Rejected) / float64(q.Submitted)
	}
	res.set("scheduler.submitted", float64(q.Submitted), "count", labelSim)
	res.set("scheduler.dispatched", float64(q.Dispatched), "count", labelSim)
	res.set("scheduler.rejected_ratio", rejected, "ratio", labelSim)
	res.set("scheduler.requeued", float64(q.Requeued), "count", labelSim)
	res.set("scheduler.wait_p99_s", q.P99WaitS, "simulated_s", labelSim)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
