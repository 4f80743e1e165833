# Pre-PR gate for the Rhythm reproduction. `make check` is the bar every
# change must clear (see README "Install / build"): formatting, vet (also
# cross-compiled for arm64), a clean build, the differential-exactness test
# for the batch-ring tail tracker (uncached, so it always actually runs),
# the sampler's scalar path under the purego tag, and the full test suite
# under the race detector — the experiment engine is concurrent, so -race
# is part of tier-1 here, not an extra. The race run uses a raised timeout:
# -race slows the simulation ~5-10x and the experiments package regenerates
# real figures.

GO ?= go

# staticcheck is pinned so results are reproducible; `go run` fetches it on
# demand (no go.mod change). Offline environments skip it with a notice —
# CI always has network and runs it for real.
STATICCHECK_VERSION ?= 2025.1

.PHONY: check fmt vet vet-cross build test exact fuzz-smoke purego race staticcheck bench bench-tables bench-compare bench-gate golden golden-update scenario-lint calibrate-smoke tournament-smoke

check: fmt vet vet-cross build exact purego race staticcheck

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# vet-cross type-checks the tree for arm64, where the sampler runs its
# scalar loops and the amd64 assembly is not built: the non-amd64 stand-ins
# for the vector kernels cannot rot unnoticed.
vet-cross:
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# exact pins the batch-ring TailTracker to the copy-and-sort oracle
# (DESIGN.md §7.5): every experiment table depends on this equality. It
# runs the randomized differential, the engine-pattern differential, the
# metamorphic test and the FuzzTailTracker seed corpus, uncached.
exact:
	$(GO) test ./internal/metrics -run 'TestTailTrackerMatchesReference|TestTailTrackerEnginePattern|TestTailTrackerMetamorphic|FuzzTailTracker' -count=1

# fuzz-smoke fuzzes each target for 10 s: the sampler's exp and radius
# kernels against their scalar oracles (DESIGN.md §9.6) and the tail
# tracker against copy-and-sort. Go fuzzes one target per invocation.
fuzz-smoke:
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzExpKernel$$' -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzRadiusKernel$$' -fuzztime 10s
	$(GO) test ./internal/metrics -run '^$$' -fuzz '^FuzzTailTracker$$' -fuzztime 10s

# purego runs the sampler's scalar loops (the path of non-AVX2 hosts and
# other architectures) through the packages that use it, and the golden
# subset on that path: the AVX2 kernels and the scalar loops must both
# reproduce GOLDEN.sha256 (DESIGN.md §9.6).
purego:
	$(GO) test -tags purego ./internal/sim ./internal/engine ./internal/queueing
	$(GO) run -tags purego ./cmd/rhythm -quick -seed 2020 -jobs 1 run fig2 fig7 | sha256sum -c GOLDEN.sha256

race:
	$(GO) test -race -timeout 45m ./...

# staticcheck probes tool availability first (one cheap -version run): when
# the module proxy is unreachable it skips with a notice instead of failing
# the whole gate, so `make check` stays usable offline.
staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck: tool unavailable (offline?); skipping"; \
	fi

# bench runs the measurement hot-path micro benchmarks and refreshes
# BENCH_engine.json (ns/op, allocs/op, B/op per benchmark) — the perf
# trajectory every optimization PR is measured against. See README
# "Benchmarks" for the file format.
bench:
	$(GO) run ./cmd/rhythm-bench -out BENCH_engine.json

# bench-tables regenerates every evaluation table through the benchmark
# harness (the pre-PR-2 `make bench`).
bench-tables:
	$(GO) test -bench=. -benchmem

# bench-compare diffs a fresh benchmark run against the committed
# BENCH_engine.json baseline: per-benchmark ns/op, allocs/op and B/op
# deltas, signed and with percentages. Informational only — it never
# fails; use bench-gate for the blocking form.
bench-compare:
	$(GO) run ./cmd/rhythm-bench -out /tmp/rhythm-bench-new.json
	$(GO) run ./cmd/rhythm-bench -compare BENCH_engine.json /tmp/rhythm-bench-new.json

# bench-gate is bench-compare with teeth: the full drift table prints,
# then the run fails if EngineTick or FleetTick regressed more than 25%
# ns/op against the committed baseline. The other rows (per-pass
# sub-benchmarks, trackers, obs) stay informational at any drift — they
# attribute a regression, they don't gate. CI's quick-bench job runs this
# as a blocking check.
bench-gate:
	$(GO) run ./cmd/rhythm-bench -out /tmp/rhythm-bench-new.json
	$(GO) run ./cmd/rhythm-bench -compare -gate BENCH_engine.json /tmp/rhythm-bench-new.json

# golden verifies the byte-determinism contract end to end: a quick
# seed-2020 run of the fig2+fig7 subset (Station.At, the batched path-tail
# estimator, the profiling sweep, every RNG stream) must hash to the pinned
# GOLDEN.sha256. Any change to produced float bits or draw order — however
# small — fails this in ~4 s. The pin is amd64 with FMA: math.Exp's amd64
# assembly takes another rounding path without FMA (about 9% of sampler
# arguments round differently), so a non-FMA amd64 host cannot reproduce
# it, and other architectures (their own math.Log/Exp) cannot either;
# regenerate there before comparing.
golden:
	$(GO) run ./cmd/rhythm -quick -seed 2020 -jobs 1 run fig2 fig7 | sha256sum -c GOLDEN.sha256

# scenario-lint pushes every shipped workload-spec file through the real
# loader (parse, strict decode, full validation — SCENARIOS.md): a spec
# field renamed without updating the examples, or an example edited into
# invalidity, fails here in under a second.
scenario-lint:
	$(GO) run ./cmd/rhythm scenario -validate examples/scenarios/*.json examples/scenarios/*.yaml

# calibrate-smoke is the self-calibration fixed point (DESIGN.md §13):
# export the golden subset's metrics, feed them back through `rhythm
# calibrate` at a different worker count, and demand zero breaches.
calibrate-smoke:
	$(GO) run ./cmd/rhythm -quick -seed 2020 -metrics-out calibrate-smoke.prom run fig2 fig7 > /dev/null
	$(GO) run ./cmd/rhythm -quick -seed 2020 -jobs 4 calibrate -observed calibrate-smoke.prom
	rm -f calibrate-smoke.prom

# tournament-smoke runs the policy-zoo head-to-head on 1 and 4 workers
# and demands byte-identical scorecards (DESIGN.md §15.4): every cell
# rides its own content-keyed RNG substream, so the worker schedule must
# never show in the bytes.
tournament-smoke:
	$(GO) run ./cmd/rhythm -quick -seed 2020 -jobs 1 run tournament > tournament-smoke-1.out
	$(GO) run ./cmd/rhythm -quick -seed 2020 -jobs 4 run tournament > tournament-smoke-4.out
	cmp tournament-smoke-1.out tournament-smoke-4.out
	rm -f tournament-smoke-1.out tournament-smoke-4.out

# golden-update re-pins GOLDEN.sha256 after an INTENTIONAL output change
# (new experiment content, a deliberate model change). Never run it to
# silence an unexplained diff — that diff is the contract catching a bug.
golden-update:
	$(GO) run ./cmd/rhythm -quick -seed 2020 -jobs 1 run fig2 fig7 | sha256sum > GOLDEN.sha256
