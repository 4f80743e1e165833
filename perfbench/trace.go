package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rhythm/internal/experiments"
	"rhythm/internal/obs"
)

// eventCounts are the per-layer rows a traced phase accumulates from the
// bus, keyed by metric name, plus the wall-clock brackets.
type eventCounts struct {
	n map[string]float64
	// expS is each experiment's bracket; gridStart and gridEnd span the
	// grid figures, which share one prefetch.
	expS               map[string]float64
	gridStart, gridEnd time.Time
	// epochMS is each fleet epoch's bracket.
	epochMS []float64
}

func newEventCounts() eventCounts {
	return eventCounts{n: make(map[string]float64), expS: make(map[string]float64)}
}

// add returns the sum of two phases' counts (brackets are not summed).
func (c eventCounts) add(o eventCounts) eventCounts {
	sum := newEventCounts()
	for k, v := range c.n {
		sum.n[k] += v
	}
	for k, v := range o.n {
		sum.n[k] += v
	}
	return sum
}

// countRows are the per-layer rows counted from events, with their units;
// report prints every one, 0 when the layer stayed idle.
var countRows = []struct{ name, unit, label string }{
	{"profiler.sweep_s", "s", labelHost},
	{"profiler.alg1_s", "s", labelHost},
	{"profiler.alg1_trials", "count", labelSim},
	{"profiler.alg1_violating", "count", labelSim},
	{"profiler.cache_hits", "count", labelSim},
	{"profiler.cache_misses", "count", labelSim},
	{"pool.dispatches", "count", labelSim},
	{"engine.runs", "count", labelSim},
	{"engine.ticks", "count", labelSim},
	{"engine.samples", "count", labelSim},
	{"controller.decisions", "count", labelSim},
	{"controller.StopBE", "count", labelSim},
	{"controller.SuspendBE", "count", labelSim},
	{"controller.CutBE", "count", labelSim},
	{"controller.DisallowBEGrowth", "count", labelSim},
	{"controller.AllowBEGrowth", "count", labelSim},
	{"be.launch", "count", labelSim},
	{"be.kill", "count", labelSim},
	{"be.suspend", "count", labelSim},
	{"be.resume", "count", labelSim},
	{"be.grow", "count", labelSim},
	{"be.cut", "count", labelSim},
	{"be.crash", "count", labelSim},
	{"faults.edges", "count", labelSim},
	{"fleet.epochs", "count", labelSim},
}

func (c eventCounts) report(res *result) {
	for _, row := range countRows {
		res.set(row.name, c.n[row.name], row.unit, row.label)
	}
	ratio := 0.0
	if c.n["be.launch"] > 0 {
		ratio = c.n["be.kill"] / c.n["be.launch"]
	}
	res.set("be.kill_ratio", ratio, "ratio", labelSim)
}

// gridIDs are the constant-load grid figures; they share one prefetch of
// comparison runs, which the first of them to start absorbs.
var gridIDs = map[string]bool{"fig9": true, "fig10": true, "fig11": true, "fig12": true, "fig13": true, "fig14": true}

// reportExperiments prints one bracket per paper experiment and the grid
// span (all 0 off the paper workload).
func (c eventCounts) reportExperiments(res *result) {
	for _, id := range experiments.IDs() {
		res.set("experiments."+id+"_s", c.expS[id], "s", labelHost)
	}
	grid := 0.0
	if !c.gridStart.IsZero() {
		grid = seconds(c.gridEnd.Sub(c.gridStart))
	}
	res.set("experiments.grid_s", grid, "s", labelHost)
}

func (c eventCounts) reportEpochs(res *result) {
	res.set("fleet.epoch_p50_ms", median(c.epochMS), "ms", labelHost)
	res.set("fleet.epoch_p90_ms", quantile(c.epochMS, 0.9), "ms", labelHost)
}

// sink is the benchmark's obs.Sink: it counts events by kind, op and scope
// and stamps run, epoch and experiment brackets with the wall clock as
// they arrive. The bus calls Emit under its own mutex; the benchmark reads
// the counts only after the emitting work has returned.
type sink struct {
	cur eventCounts
	// open holds the start stamps of engine runs in flight, by scope.
	open       map[string][]time.Time
	expStart   map[string]time.Time
	epochStart time.Time
}

func newSink() *sink {
	return &sink{cur: newEventCounts(), open: make(map[string][]time.Time), expStart: make(map[string]time.Time)}
}

// snapshot returns the counts since the last snapshot and starts anew.
func (s *sink) snapshot() eventCounts {
	c := s.cur
	s.cur = newEventCounts()
	return c
}

// Close implements obs.Sink.
func (s *sink) Close() error { return nil }

// Emit implements obs.Sink.
func (s *sink) Emit(ev *obs.Event) {
	now := time.Now()
	c := &s.cur
	switch ev.Kind {
	case obs.KindRun:
		if ev.Scope == "fleet" {
			s.epoch(now, ev.Op)
			return
		}
		s.run(now, ev)
	case obs.KindTick:
		c.n["engine.ticks"]++
		c.n["engine.samples"] += float64(ev.N)
	case obs.KindDecision:
		c.n["controller.decisions"]++
		c.n["controller."+ev.Op]++
	case obs.KindBE:
		// The fleet's queue transitions (dispatch, requeue, evict) are
		// the scheduler rows, read from its scorecard.
		if ev.Scope != "fleet" {
			c.n["be."+ev.Op]++
		}
	case obs.KindCache:
		if ev.Op == "hit" {
			c.n["profiler.cache_hits"]++
		} else {
			c.n["profiler.cache_misses"]++
		}
	case obs.KindPool:
		c.n["pool.dispatches"]++
	case obs.KindExperiment:
		s.experiment(now, ev)
	case obs.KindFault:
		c.n["faults.edges"]++
	}
}

// Engine-run scopes of the offline phase (internal/profiler labels).
const (
	scopeSLA     = "sla:"
	scopeProfile = "profile:"
	scopeTrial   = "slack-trial:"
)

func (s *sink) run(now time.Time, ev *obs.Event) {
	c := &s.cur
	trial := strings.HasPrefix(ev.Scope, scopeTrial)
	switch ev.Op {
	case "start":
		c.n["engine.runs"]++
		if trial {
			c.n["profiler.alg1_trials"]++
		}
		s.open[ev.Scope] = append(s.open[ev.Scope], now)
	case "end":
		starts := s.open[ev.Scope]
		if len(starts) == 0 {
			return
		}
		// Runs sharing a scope label pair up first-in first-out; the
		// summed durations do not depend on the pairing.
		d := seconds(now.Sub(starts[0]))
		if s.open[ev.Scope] = starts[1:]; len(starts) == 1 {
			delete(s.open, ev.Scope)
		}
		switch {
		case trial:
			c.n["profiler.alg1_s"] += d
			if violations(ev.Reason) > 0 {
				c.n["profiler.alg1_violating"]++
			}
		case strings.HasPrefix(ev.Scope, scopeSLA), strings.HasPrefix(ev.Scope, scopeProfile):
			c.n["profiler.sweep_s"] += d
		}
	}
}

// violations reads the violation count from an engine run's end reason
// ("worst_p99=...s violations=N").
func violations(reason string) int {
	i := strings.LastIndex(reason, "violations=")
	if i < 0 {
		return 0
	}
	n, err := strconv.Atoi(strings.TrimSpace(reason[i+len("violations="):]))
	if err != nil {
		return 0
	}
	return n
}

func (s *sink) epoch(now time.Time, op string) {
	switch op {
	case "epoch-start":
		s.epochStart = now
	case "epoch-end":
		s.cur.n["fleet.epochs"]++
		s.cur.epochMS = append(s.cur.epochMS, millis(now.Sub(s.epochStart)))
	}
}

func (s *sink) experiment(now time.Time, ev *obs.Event) {
	c := &s.cur
	switch ev.Op {
	case "start":
		s.expStart[ev.ID] = now
		if gridIDs[ev.ID] && (c.gridStart.IsZero() || now.Before(c.gridStart)) {
			c.gridStart = now
		}
	case "end":
		c.expS[ev.ID] += seconds(now.Sub(s.expStart[ev.ID]))
		if gridIDs[ev.ID] && now.After(c.gridEnd) {
			c.gridEnd = now
		}
	}
}

// ---------------------------------------------------------------------------
// CPU profiles

// cpuRows are the cpu.* rows: the share of profiled CPU samples whose
// stack holds one of the functions (pprof's cum%). Method names are
// written without the receiver's "(*" and ")".
var cpuRows = []struct {
	name string
	fns  []string
}{
	{"cpu.sim.LognormalDraws", []string{"rhythm/internal/sim.LognormalDraws"}},
	{"cpu.metrics.TailTracker.Quantile", []string{"rhythm/internal/metrics.TailTracker.Quantile"}},
	{"cpu.metrics.TailTracker.AddBatch", []string{"rhythm/internal/metrics.TailTracker.AddBatch"}},
	{"cpu.queueing.Station.At", []string{"rhythm/internal/queueing.Station.At"}},
	{"cpu.cluster.Machine.Grant", []string{"rhythm/internal/cluster.Machine.Grant"}},
	{"cpu.scheduler.Scheduler.Dispatch", []string{"rhythm/internal/scheduler.Scheduler.Dispatch"}},
	{"cpu.trace.Generate", []string{"rhythm/internal/trace.Generate"}},
	{"cpu.trace.Analyze", []string{"rhythm/internal/trace.Analyze"}},
	{"cpu.analyzer.Analyze", []string{"rhythm/internal/analyzer.Analyze"}},
	// Background marking and the marking assists charged to allocating
	// goroutines; the two never share a stack.
	{"cpu.runtime.gc", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc"}},
}

// publishFn is the bus's fan-out, profiled in the traced phases.
const publishFn = "rhythm/internal/obs.Bus.publish"

// cpuProfiler writes one CPU profile per phase into dir and folds them
// with `go tool pprof`.
type cpuProfiler struct {
	dir string
	f   *os.File
}

func newCPUProfiler(dir string) (*cpuProfiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile directory: %w", err)
	}
	return &cpuProfiler{dir: dir}, nil
}

func (p *cpuProfiler) path(phase string) string { return filepath.Join(p.dir, phase+".pprof") }

func (p *cpuProfiler) start(phase string) error {
	f, err := os.Create(p.path(phase))
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	p.f = f
	return nil
}

// stop ends the phase's profile. A profile that fails to close shows up
// as an error when fold reads it.
func (p *cpuProfiler) stop() {
	pprof.StopCPUProfile()
	p.f.Close()
}

// fold merges the phases' profiles and returns each function's cumulative
// share of the samples.
func (p *cpuProfiler) fold(phases ...string) (map[string]float64, error) {
	args := []string{"tool", "pprof", "-top", "-cum", "-symbolize=none",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}
	for _, ph := range phases {
		args = append(args, p.path(ph))
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parseTop(out), nil
}

// parseTop reads `pprof -top` rows ("flat flat% sum% cum cum% name") into
// cum shares keyed by function name without receiver punctuation.
func parseTop(out []byte) map[string]float64 {
	shares := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err != nil {
			continue
		}
		name := strings.NewReplacer("(*", "", ")", "").Replace(f[5])
		shares[name] += pct / 100
	}
	return shares
}

// shareOf sums the shares of fns.
func shareOf(shares map[string]float64, fns []string) float64 {
	s := 0.0
	for _, fn := range fns {
		s += shares[fn]
	}
	return s
}
