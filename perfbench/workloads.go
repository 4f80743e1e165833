package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rhythm/internal/bejobs"
	"rhythm/internal/controller"
	"rhythm/internal/core"
	"rhythm/internal/engine"
	"rhythm/internal/experiments"
	"rhythm/internal/faults"
	"rhythm/internal/fleet"
	"rhythm/internal/loadgen"
	"rhythm/internal/obs"
	catalog "rhythm/internal/workload"
)

// workloads maps each workload to its offline phase; the state it returns
// runs the online rounds. README.md says why each workload is here and
// which layers it loads and bypasses.
var workloads = map[string]setupFunc{
	"paper": setupPaper,
	"storm": setupStorm,
	"fleet": setupFleet,
}

func workloadNames() []string { return sortedKeys(workloads) }

// serviceNames lists the six Table 1 services in paper order.
func serviceNames() []string {
	var out []string
	for _, s := range catalog.Services() {
		out = append(out, s.Name)
	}
	return out
}

// derive returns the seed for one named input of a run: an FNV-1a hash of
// label mixed into seed by the SplitMix64 finalizer. Never 0, which the
// simulator reads as "use the default seed".
func derive(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := seed ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// forEach runs fn(i) for i in [0, n) on up to workers goroutines and
// returns every error joined. It returns once all calls have.
func forEach(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite reports the first statistic, by name, that is NaN, infinite or
// negative.
func finite(stats map[string]float64) error {
	for _, name := range sortedKeys(stats) {
		if v := stats[name]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("%s = %v", name, v)
		}
	}
	return nil
}

// checkSystem validates one deployment: a finite positive SLA, every
// slacklimit in (0, 1] and finite thresholds.
func checkSystem(sys *core.System) error {
	if err := finite(map[string]float64{"SLA": sys.SLA}); err != nil || sys.SLA == 0 {
		return fmt.Errorf("%s: SLA %v", sys.Service.Name, sys.SLA)
	}
	if len(sys.Slacklimits) == 0 {
		return fmt.Errorf("%s: no slacklimits", sys.Service.Name)
	}
	for pod, sl := range sys.Slacklimits {
		if !(sl > 0 && sl <= 1) {
			return fmt.Errorf("%s/%s: slacklimit %v outside (0, 1]", sys.Service.Name, pod, sl)
		}
	}
	for pod, th := range sys.Thresholds {
		if err := finite(map[string]float64{"loadlimit": th.Loadlimit, "slacklimit": th.Slacklimit}); err != nil {
			return fmt.Errorf("%s/%s: %v", sys.Service.Name, pod, err)
		}
	}
	return nil
}

// systemDigest renders a deployment's simulated outcome exactly.
func systemDigest(sys *core.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s sla=%v", sys.Service.Name, sys.SLA)
	for _, pod := range sortedKeys(sys.Slacklimits) {
		fmt.Fprintf(&b, " %s=%v/%+v", pod, sys.Slacklimits[pod], sys.Thresholds[pod])
	}
	return b.String()
}

// systemsState is the offline outcome shared by the workloads: one
// deployment per service.
type systemsState []*core.System

func (ss systemsState) checkSetup(res *result) string {
	var lines []string
	for _, sys := range ss {
		res.check("deploy "+sys.Service.Name, checkSystem(sys))
		lines = append(lines, systemDigest(sys))
	}
	return strings.Join(lines, "\n")
}

// contextOptions is the experiment scale every workload deploys at: the
// quick scale `rhythm run` defaults to.
func contextOptions(seed uint64, opts options) experiments.Options {
	return experiments.Options{Seed: seed, Quick: true, Jobs: opts.workers}
}

// deployAll deploys services through ctx.System, the path `rhythm run`
// takes, on opts.workers goroutines (each deployment fans its own sweeps
// over opts.workers more).
func deployAll(ctx *experiments.Context, services []string, opts options, sp *spans) (systemsState, error) {
	systems := make(systemsState, len(services))
	err := forEach(len(services), opts.workers, func(i int) error {
		start := time.Now()
		sys, err := ctx.System(services[i])
		sp.deploy(services[i], time.Since(start))
		systems[i] = sys
		return err
	})
	return systems, err
}

// ---------------------------------------------------------------------------
// paper

// paperIDs are the experiments a paper round runs: `run all`, or the
// golden subset at the small test scale.
func paperIDs(opts options) []string {
	if opts.small {
		return []string{"fig2", "fig7"}
	}
	return experiments.IDs()
}

func paperServices(opts options) []string {
	if opts.small {
		return []string{"Redis"}
	}
	return serviceNames()
}

type paperState struct {
	systemsState
	seed uint64
}

// setupPaper cold-deploys the Table 1 services. The last repetition runs
// at the seed itself, so seed 2020 is the golden configuration.
func setupPaper(opts options, rep int, sp *spans) (state, error) {
	seed := opts.seed
	if rep < opts.setupReps-1 {
		seed = derive(opts.seed, fmt.Sprintf("paper/setup/%d", rep))
	}
	ctx := experiments.NewContext(contextOptions(seed, opts))
	systems, err := deployAll(ctx, paperServices(opts), opts, sp)
	return &paperState{systemsState: systems, seed: ctx.Opts.Seed}, err
}

// round runs the experiments on a fresh context. Its deployments are hits
// in the simulator's process-wide profile cache, done before the timer
// starts, so no experiment is billed for a deployment.
func (p *paperState) round(opts options) (*roundOut, error) {
	ctx := experiments.NewContext(contextOptions(p.seed, opts))
	if _, err := deployAll(ctx, paperServices(opts), opts, nil); err != nil {
		return nil, err
	}
	sw := startWatch()
	results := ctx.RunAll(paperIDs(opts), opts.workers)
	out := &roundOut{timing: sw.stop()}

	var lines, raw []string
	tables := make(map[string]*experiments.Table)
	for _, r := range results {
		err := r.Err
		if err == nil {
			err = checkTable(r.Table)
		}
		out.ops = append(out.ops, opOut{name: "experiment " + r.ID, ms: millis(r.Elapsed), err: err})
		if r.Table != nil {
			tables[r.ID] = r.Table
			lines = append(lines, r.ID+" "+digestOf(unsignedZeros(r.Table).String()))
			raw = append(raw, r.ID+" "+digestOf(r.Table.String()))
		}
	}
	out.digest = strings.Join(lines, "\n")
	out.rawDigest = strings.Join(raw, "\n")
	if fig2, fig7 := tables["fig2"], tables["fig7"]; p.seed == goldenSeed && fig2 != nil && fig7 != nil {
		err := checkGolden(fig2, fig7, opts.root)
		out.checks = append(out.checks, opOut{name: "golden", err: err})
		if err == nil {
			out.info = append(out.info, "golden GOLDEN.sha256 reproduced")
		}
	}
	return out, nil
}

// checkTable rejects an empty table or one with a non-finite cell.
func checkTable(t *experiments.Table) error {
	if t == nil || len(t.Columns) == 0 || len(t.Rows) == 0 {
		return fmt.Errorf("empty table")
	}
	for _, row := range t.Rows {
		for _, cell := range row {
			if strings.Contains(cell, "NaN") || strings.Contains(cell, "Inf") {
				return fmt.Errorf("non-finite cell %q in row %v", cell, row)
			}
		}
	}
	return nil
}

// unsignedZeros returns a copy of t in which every cell that prints a
// negative zero ("-0.0%", "-0.000") prints it unsigned. Such a cell holds a
// value that rounds to zero, so its sign lies below the table's precision,
// and RunStats.MeanEMU/MeanBEThroughput/MeanCPUUtil/MeanMemBWUtil sum over a
// map: when Rhythm and Heracles tie, the grid tables print the same
// improvement as 0.0% or -0.0% from one call to the next (README.md, known
// defect). The cells themselves are hashed as printed in the raw digest.
func unsignedZeros(t *experiments.Table) *experiments.Table {
	c := *t
	c.Rows = make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		c.Rows[i] = append([]string(nil), row...)
		for j, cell := range row {
			if digits, ok := strings.CutPrefix(cell, "-"); ok && strings.Contains(digits, "0") &&
				strings.Trim(digits, "0.%") == "" {
				c.Rows[i][j] = digits
			}
		}
	}
	return &c
}

// goldenSeed is the seed GOLDEN.sha256 pins at quick scale.
const goldenSeed = 2020

// checkGolden hashes the fig2 and fig7 tables the way `rhythm run fig2
// fig7` prints them and compares the hash with GOLDEN.sha256, which pins
// them at seed 2020 and quick scale.
func checkGolden(fig2, fig7 *experiments.Table, root string) error {
	pin, err := os.ReadFile(filepath.Join(root, "GOLDEN.sha256"))
	if err != nil {
		return err
	}
	want := strings.Fields(string(pin))
	if got := digestOf(fig2.String() + "\n" + fig7.String() + "\n"); len(want) == 0 || want[0] != got {
		return fmt.Errorf("fig2+fig7 hash %s, GOLDEN.sha256 pins %v", got, want)
	}
	return nil
}

func digestOf(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// ---------------------------------------------------------------------------
// storm

// stormServices are a 4-Servpod chain profiled through the request tracer
// and a fan-out microservice graph.
var stormServices = []string{"E-commerce", "SNMS"}

// stormReplicas is how many independent replicas one storm round covers.
// A replica is a deployment of both services, a diurnal pattern, fault
// schedules and run seeds, all derived from its own seed. How much work a
// round does depends mostly on the deployment's slacklimits, so covering
// several replicas averages that out: host time then moves with the code,
// not with --seed.
const stormReplicas = 3

// stormSeed is the seed of replica k for set-up repetition rep. Replica 0
// is the repetition's own cold deployment; the others are shared by every
// repetition, and the first round deploys them before its timer starts.
func stormSeed(seed uint64, rep, k int) uint64 {
	if k == 0 {
		return derive(seed, fmt.Sprintf("storm/setup/%d", rep))
	}
	return derive(seed, fmt.Sprintf("storm/replica/%d", k))
}

type stormRun struct {
	name    string
	replica int
	sys     int
	policy  string
	cfg     core.RunConfig
}

type stormState struct {
	// systemsState is replica 0, the deployment this set-up made.
	systemsState
	// replicas holds every replica's deployments; round deploys the others
	// before its timer starts.
	replicas []systemsState
	runs     []stormRun
	seed     uint64
	rep      int
}

// setupStorm cold-deploys both services as replica 0 and builds the runs
// of every replica: per replica a diurnal pattern and one fault schedule
// per run (the engine re-validates a schedule when it starts, so
// concurrent runs must not share one; the policies of a replica still face
// the same faults).
func setupStorm(opts options, rep int, sp *spans) (state, error) {
	systems, err := deployAll(experiments.NewContext(contextOptions(stormSeed(opts.seed, rep, 0), opts)), stormServices, opts, sp)
	if err != nil {
		return nil, err
	}
	replicas := stormReplicas
	if opts.small {
		replicas = 1
	}
	st := &stormState{systemsState: systems, replicas: make([]systemsState, replicas), seed: opts.seed, rep: rep}
	st.replicas[0] = systems

	dur, warm := 80*time.Second, 16*time.Second
	presets := faults.Presets()
	if opts.small {
		dur, warm, presets = 20*time.Second, 4*time.Second, presets[:1]
	}
	mix := []bejobs.Type{bejobs.Wordcount, bejobs.CPUStress, bejobs.StreamDRAM, bejobs.ImageClassify}
	for k := 0; k < replicas; k++ {
		seed := stormSeed(opts.seed, rep, k)
		diurnal, err := loadgen.NewDiurnal(dur/2, 0.35, 0.85, 0.08, derive(seed, "storm/diurnal"))
		if err != nil {
			return nil, err
		}
		for si, svc := range stormServices {
			for _, load := range append([]string{"diurnal"}, presets...) {
				for _, pol := range controller.Names() {
					var sched *faults.Schedule
					if load != "diurnal" {
						if sched, err = faults.Preset(load, derive(seed, "storm/faults/"+load), dur); err != nil {
							return nil, err
						}
					}
					name := fmt.Sprintf("%s/%s/%s/%d", svc, load, pol, k)
					st.runs = append(st.runs, stormRun{name: name, replica: k, sys: si, policy: pol, cfg: core.RunConfig{
						Pattern:  diurnal,
						BETypes:  mix,
						Duration: dur,
						Warmup:   warm,
						Seed:     derive(seed, "storm/run/"+name),
						Policy:   core.PolicyNamed(pol),
						Faults:   sched,
					}})
				}
			}
		}
	}
	return st, nil
}

// deployReplicas deploys the replicas this state has not deployed yet,
// through a fresh context each, and returns a check per deployment.
func (s *stormState) deployReplicas(opts options) ([]opOut, error) {
	var checks []opOut
	for k, systems := range s.replicas {
		if systems != nil {
			continue
		}
		systems, err := deployAll(experiments.NewContext(contextOptions(stormSeed(s.seed, s.rep, k), opts)), stormServices, opts, nil)
		if err != nil {
			return nil, err
		}
		for _, sys := range systems {
			checks = append(checks, opOut{name: fmt.Sprintf("deploy %s/%d", sys.Service.Name, k), err: checkSystem(sys)})
		}
		s.replicas[k] = systems
	}
	return checks, nil
}

func (s *stormState) round(opts options) (*roundOut, error) {
	checks, err := s.deployReplicas(opts)
	if err != nil {
		return nil, err
	}
	stats := make([]string, len(s.runs))
	ops := make([]opOut, len(s.runs))
	viol := make([]float64, len(s.runs))
	goodput := make([]float64, len(s.runs))
	sw := startWatch()
	_ = forEach(len(s.runs), opts.workers, func(i int) error { // failures land in ops
		r := s.runs[i]
		start := time.Now()
		st, err := s.replicas[r.replica][r.sys].Run(r.cfg)
		ops[i] = opOut{name: "run " + r.name, ms: millis(time.Since(start)), err: err}
		if err == nil {
			ops[i].err = checkRunStats(st)
			stats[i] = r.name + " " + digestOf(runStatsText(st))
			viol[i], goodput[i] = st.ViolationSeconds, meanBEThroughput(st)
		}
		return nil
	})
	out := &roundOut{timing: sw.stop(), ops: ops, checks: checks, hasSim: true}
	out.digest = strings.Join(stats, "\n")
	n := 0
	for i, r := range s.runs {
		if r.policy == "rhythm" {
			out.viol += viol[i]
			out.goodput += goodput[i]
			n++
		}
	}
	if n > 0 {
		out.goodput /= float64(n)
	}
	return out, nil
}

// meanBEThroughput is RunStats.MeanBEThroughput summed in pod-name order:
// the method sums in map order, whose last bit varies between calls.
func meanBEThroughput(st *engine.RunStats) float64 {
	sum := 0.0
	for _, pod := range sortedKeys(st.PerPod) {
		sum += st.PerPod[pod].BEThroughput
	}
	return sum / float64(max(len(st.PerPod), 1))
}

// checkRunStats rejects a co-location run with a non-finite or negative
// statistic, or no tail latency at all.
func checkRunStats(st *engine.RunStats) error {
	if err := finite(map[string]float64{"WorstP99": st.WorstP99, "MeanP99": st.MeanP99,
		"ViolationSeconds": st.ViolationSeconds}); err != nil {
		return err
	}
	if st.WorstP99 == 0 {
		return fmt.Errorf("WorstP99 = 0")
	}
	for pod, p := range st.PerPod {
		if err := finite(map[string]float64{"BEThroughput": p.BEThroughput, "CPUUtil": p.CPUUtil,
			"MemBWUtil": p.MemBWUtil, "EMU": p.EMU}); err != nil {
			return fmt.Errorf("%s: %v", pod, err)
		}
	}
	return nil
}

// runStatsText renders a run's statistics exactly.
func runStatsText(st *engine.RunStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "worst=%v mean=%v viol=%d vs=%v degraded=%d",
		st.WorstP99, st.MeanP99, st.Violations, st.ViolationSeconds, st.DegradedPeriods)
	for _, pod := range sortedKeys(st.PerPod) {
		fmt.Fprintf(&b, " %+v", *st.PerPod[pod])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// fleet

// fleetPreset is the fleet the workload steps: 1000 machines (380 engine
// replicas of the six services) sharing one BE queue.
const fleetPreset = "fleet1000"

type fleetState struct {
	systemsState
	cfg fleet.Config
	// next is the fleet set-up built, and nextBus the observability bus
	// installed when it was built. A fleet binds to that bus for life, so
	// a round steps next only under the same bus and otherwise builds its
	// own fleet before the timer starts.
	next    *fleet.Fleet
	nextBus *obs.Bus
}

// fleetEpochs is the number of 2 s epochs one round steps.
func fleetEpochs(opts options) int {
	if opts.small {
		return 10
	}
	return 60
}

func setupFleet(opts options, rep int, sp *spans) (state, error) {
	seed := derive(opts.seed, fmt.Sprintf("fleet/setup/%d", rep))
	preset := fleetPreset
	if opts.small {
		preset = "fleet4"
	}
	prof, err := fleet.PresetProfile(preset)
	if err != nil {
		return nil, err
	}
	var services []string
	for _, e := range prof.Mix {
		services = append(services, e.Service)
	}
	ctx := experiments.NewContext(contextOptions(seed, opts))
	systems, err := deployAll(ctx, services, opts, sp)
	if err != nil {
		return nil, err
	}
	entries := make([]fleet.Entry, len(prof.Mix))
	for i, e := range prof.Mix {
		entries[i] = fleet.Entry{Service: systems[i].Service, Replicas: e.Replicas, Policy: systems[i].Policy, SLA: systems[i].SLA}
	}
	dur := time.Duration(fleetEpochs(opts)) * 2 * time.Second
	pattern, err := loadgen.NewDiurnal(dur/2, 0.35, 0.85, 0.08, derive(seed, "fleet/load"))
	if err != nil {
		return nil, err
	}
	st := &fleetState{systemsState: systems, cfg: fleet.Config{
		Entries:  entries,
		Pattern:  pattern,
		Duration: dur,
		Warmup:   20 * time.Second,
		Epoch:    2 * time.Second,
		Seed:     derive(seed, "fleet/run"),
		Jobs:     opts.workers,
	}}
	st.next, err = fleet.New(st.cfg)
	st.nextBus = obs.Active()
	return st, err
}

func (s *fleetState) round(opts options) (*roundOut, error) {
	fl := s.next
	if fl == nil || s.nextBus != obs.Active() {
		var err error
		if fl, err = fleet.New(s.cfg); err != nil {
			return nil, err
		}
	}
	s.next = nil
	epochs := fleetEpochs(opts)
	out := &roundOut{epochs: epochs, hasSim: true}
	sw := startWatch()
	for e := 0; e < epochs; e++ {
		start := time.Now()
		fl.Step()
		out.ops = append(out.ops, opOut{name: fmt.Sprintf("epoch %d", e), ms: millis(time.Since(start))})
	}
	out.timing = sw.stop()

	res := fl.Result()
	out.checks = append(out.checks, opOut{name: "fleet result", err: checkFleet(res, epochs)})
	out.digest = "fleet " + digestOf(fmt.Sprintf("%+v", *res))
	// BE goodput is the machine-weighted mean normalized BE throughput:
	// Result.GoodputPerMachineHour counts finished jobs, and no job (half
	// an hour or more of solo work) finishes within a round.
	for _, c := range res.Classes {
		out.viol += c.ViolationSeconds
		out.goodput += c.BEThroughput * float64(c.Machines)
	}
	out.goodput /= float64(res.Machines)
	out.queue = &res.Queue
	return out, nil
}

// checkFleet rejects a fleet scorecard with a missing epoch or a
// non-finite statistic.
func checkFleet(res *fleet.Result, epochs int) error {
	if res.Epochs != epochs {
		return fmt.Errorf("%d epochs stepped, %d recorded", epochs, res.Epochs)
	}
	if err := finite(map[string]float64{"GoodputPerMachineHour": res.GoodputPerMachineHour,
		"P99WaitS": res.Queue.P99WaitS, "MeanWaitS": res.Queue.MeanWaitS}); err != nil {
		return err
	}
	for _, c := range res.Classes {
		if err := finite(map[string]float64{"MeanP99": c.MeanP99, "WorstP99": c.WorstP99,
			"ViolationSeconds": c.ViolationSeconds, "BEThroughput": c.BEThroughput,
			"CPUUtil": c.CPUUtil, "MemBWUtil": c.MemBWUtil}); err != nil {
			return fmt.Errorf("%s: %v", c.Service, err)
		}
	}
	return nil
}
