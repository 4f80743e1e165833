// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload (paper, storm or fleet) from a seed in a single process,
// times the offline phase (cold deploys, fleets, patterns and fault
// schedules) as setup_s apart from the online phase, checks every simulated
// output, and prints the metrics. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1. The lines before it repeat the metrics in plain text with
// their host or simulated label, the host fingerprint and the digest of
// every simulated outcome. README.md documents the workloads and metrics.
//
// The benchmark drives the simulator only through its public functions
// (experiments.Context, core.System.Run, fleet.New/Step/Result and
// an obs.Sink of its own) and never passes it anything but generated
// inputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line inputs of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// workdir receives the CPU profiles of a traced run.
	workdir string
	// workers bounds every worker pool: the benchmark's own and the
	// simulator's Jobs options.
	workers int
	// setupReps is how many cold offline phases a run times; setup_s is
	// their median.
	setupReps int
	// minRounds is the fewest online rounds a run measures.
	minRounds int
	// small shrinks every workload to a few seconds of work for the
	// self-test.
	small bool
	// root is the repository root, where GOLDEN.sha256 and the sources
	// the fingerprint hashes live.
	root string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 2020, "seed every simulated input derives from")
	seconds := fs.Int("seconds", 15, "host seconds of timed online work: whole rounds run until their timed work adds up to this and two have run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build/perfbench", "directory for CPU profiles of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := options{
		workload:  *name,
		seed:      *seed,
		seconds:   *seconds,
		trace:     *trace == 1,
		workdir:   *workdir,
		workers:   hostWorkers(),
		setupReps: 3,
		minRounds: minRounds,
		root:      ".",
	}
	var res *result
	var err error
	if opts.trace {
		res, err = measureTraced(setup, opts)
	} else {
		res, err = measure(setup, opts)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	if err := res.print(stdout, opts); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// hostWorkers is the worker count every pool uses: GOMAXPROCS, capped at
// the CPUs the process may run on (nproc).
func hostWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if n := runtime.NumCPU(); n < w {
		w = n
	}
	return w
}

// metric is one reported number. label says whether it is host time or a
// simulated outcome.
type metric struct {
	value float64
	unit  string
	label string
}

// result is what one benchmark run reports.
type result struct {
	attempted int
	failed    int
	// problems lists every failed check, for the plain-text report.
	problems []string
	digest   string
	metrics  map[string]metric
	// info carries plain-text lines that are not metrics (op counts, the
	// golden check).
	info []string
}

func newResult() *result { return &result{metrics: make(map[string]metric)} }

func (r *result) set(name string, value float64, unit, label string) {
	r.metrics[name] = metric{value: value, unit: unit, label: label}
}

// check records one checked unit of work; a non-nil err marks it failed.
func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", what, err))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the plain-text report and, last, the JSON result line. A
// non-finite metric fails the run.
func (r *result) print(w io.Writer, opts options) error {
	out := jsonResult{Metrics: make(map[string]jsonMetric)}
	for _, n := range sortedKeys(r.metrics) {
		m := r.metrics[n]
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			r.check("metric "+n, fmt.Errorf("non-finite value %v", m.value))
		} else if m.label != labelInfo {
			out.Metrics[n] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	out.Attempted, out.Failed, out.Correct = r.attempted, r.failed, r.failed == 0

	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%t\n",
		opts.workload, opts.seed, opts.seconds, opts.trace)
	fmt.Fprintf(w, "host %s\n", hostFingerprint(opts.workers, opts.root))
	for _, line := range r.info {
		fmt.Fprintln(w, line)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED %s\n", p)
	}
	fmt.Fprintf(w, "digest %s\n", r.digest)
	for _, n := range sortedKeys(r.metrics) {
		m := r.metrics[n]
		fmt.Fprintf(w, "metric %-40s %14.6g %-12s %s\n", n, m.value, m.unit, m.label)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// Metric labels: host metrics are measured on the host running the
// benchmark; simulated metrics are deterministic outcomes of the seed and
// must not move under a pure speed change; info metrics are printed in the
// plain-text report only, because the result line's metric set is fixed.
const (
	labelHost = "host"
	labelSim  = "simulated"
	labelInfo = "info"
)

// median returns the median of vs (0 for none).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
