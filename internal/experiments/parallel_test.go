package experiments

import (
	"sync"
	"testing"

	"rhythm/internal/sim"
)

// determinismIDs is the registry slice exercised by the serial-vs-parallel
// regression. Under -race (or -short) the full registry would multiply an
// already ~5x-slowed binary, so we keep the cheap experiments that still
// cover every concurrency mechanism: scratch-RNG experiments (fig2, fig7,
// ablations), deployment-backed figures (fig6, fig8, tab1) and the
// controller timeline (fig17). The full registry — including the grid
// prefetch and threshold sweep — runs on plain `go test`; the fan-out
// behind fig15 and fig16 runs under -race in TestCompareAllMatchesSerial.
func determinismIDs() []string {
	if sim.RaceEnabled || testing.Short() {
		return []string{
			"fig2", "fig6", "fig7", "fig8", "tab1", "fig17",
			"ablation-pairing", "ablation-period",
		}
	}
	return IDs()
}

// TestRunAllParallelMatchesSerial is the determinism regression the
// package godoc points at: running the registry on one worker and on four
// must render byte-identical tables. Both contexts are fresh so neither
// inherits the other's singleflight results; only the process-wide profile
// cache is shared, and it is keyed by content, not by worker count.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	ids := determinismIDs()

	serialCtx := NewContext(Options{Quick: true, Seed: 2020, Jobs: 1})
	parallelCtx := NewContext(Options{Quick: true, Seed: 2020, Jobs: 4})

	serial := serialCtx.RunAll(ids, 0)
	parallel := parallelCtx.RunAll(ids, 0)

	if len(serial) != len(ids) || len(parallel) != len(ids) {
		t.Fatalf("result counts: serial %d, parallel %d, want %d",
			len(serial), len(parallel), len(ids))
	}
	for i, id := range ids {
		s, p := serial[i], parallel[i]
		if s.ID != id || p.ID != id {
			t.Fatalf("result %d out of order: serial %q, parallel %q, want %q",
				i, s.ID, p.ID, id)
		}
		if s.Err != nil {
			t.Fatalf("%s (serial): %v", id, s.Err)
		}
		if p.Err != nil {
			t.Fatalf("%s (jobs=4): %v", id, p.Err)
		}
		if got, want := p.Table.String(), s.Table.String(); got != want {
			t.Errorf("%s: jobs=4 table differs from serial\nserial:\n%s\njobs=4:\n%s",
				id, want, got)
		}
		e, _ := Get(id)
		for _, r := range []Result{s, p} {
			if r.Prefetch < 0 || r.Prefetch > r.Elapsed || (!e.grid && r.Prefetch != 0) {
				t.Errorf("%s: prefetch %v of elapsed %v (grid figure: %v)", id, r.Prefetch, r.Elapsed, e.grid)
			}
		}
		if e.grid && (serialCtx.GridPrefetch() <= 0 || parallelCtx.GridPrefetch() <= 0) {
			t.Errorf("%s ran but the grid prefetch was not timed", id)
		}
	}
}

func TestRunAllReportsErrorsInPlace(t *testing.T) {
	results := sharedCtx.RunAll([]string{"fig2", "no-such-figure"}, 2)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Err != nil {
		t.Fatalf("fig2: %v", results[0].Err)
	}
	if results[0].Table == nil || results[0].ID != "fig2" {
		t.Fatalf("fig2 result malformed: %+v", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("unknown experiment did not surface an error")
	}
}

// TestConcurrentSystemSingleflight hammers System from several goroutines
// and checks they all land on one deployment — the singleflight contract
// the -race run of this package verifies for data safety.
func TestConcurrentSystemSingleflight(t *testing.T) {
	const workers = 8
	ctx := NewContext(Options{Quick: true, Seed: 2020, Jobs: 4})
	systems := make([]interface{}, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			systems[w], errs[w] = ctx.System("Redis")
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if systems[w] != systems[0] {
			t.Fatalf("worker %d deployed a second Redis system", w)
		}
	}
}

// TestScratchRNGDeterministic pins the fork discipline: the stream depends
// only on (seed, label), never on call order or goroutine interleaving.
func TestScratchRNGDeterministic(t *testing.T) {
	a := sharedCtx.ScratchRNG("fig2")
	_ = sharedCtx.ScratchRNG("something-else") // unrelated fork must not disturb a's stream
	b := sharedCtx.ScratchRNG("fig2")
	for i := 0; i < 16; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v", i, x, y)
		}
	}
	if sharedCtx.ScratchRNG("fig2").Float64() == sharedCtx.ScratchRNG("fig6").Float64() {
		t.Fatal("distinct labels produced identical first draws")
	}
}
