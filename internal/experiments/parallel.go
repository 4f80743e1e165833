package experiments

import (
	"time"

	"rhythm/internal/sim"
)

// Result is the outcome of one experiment inside a RunAll batch.
type Result struct {
	ID    string
	Table *Table
	Err   error
	// Elapsed is this experiment's own wall-clock time. Because
	// experiments share singleflight caches, the first experiment to need
	// an expensive artifact (a deployment) absorbs its cost.
	Elapsed time.Duration
	// Prefetch is the part of Elapsed a grid figure (fig9-fig14) spent
	// computing or waiting for the grid prefetch the six share; zero for
	// every other experiment. Several grid figures may wait on the one
	// prefetch at once, so the CLI approximates the single-worker
	// wall-clock (and the speedup) as Context.GridPrefetch plus the sum
	// of Elapsed-Prefetch over the batch.
	Prefetch time.Duration
}

// RunAll executes the experiments named by ids (every registered
// experiment when ids is empty) on up to jobs worker goroutines (0 =
// Opts.Jobs). Results are returned in ids order, one per id, errors
// included in place rather than aborting the batch — callers decide
// whether a failed figure sinks the run.
//
// Tables are byte-identical to a jobs=1 run for any worker count: every
// experiment draws randomness only from content-keyed substreams of
// Opts.Seed, and all cross-experiment state is cached under singleflight
// keys whose values do not depend on which worker computes them first.
// TestRunAllParallelMatchesSerial holds this property down.
func (c *Context) RunAll(ids []string, jobs int) []Result {
	if len(ids) == 0 {
		ids = IDs()
	}
	if jobs <= 0 {
		jobs = c.jobs()
	}
	out := make([]Result, len(ids))
	sim.ForEach(len(ids), jobs, func(i int) {
		start := time.Now()
		tab, prefetch, err := c.run(ids[i])
		out[i] = Result{ID: ids[i], Table: tab, Err: err, Elapsed: time.Since(start), Prefetch: prefetch}
	})
	return out
}
