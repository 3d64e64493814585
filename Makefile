# Development entry points. The repo is pure Go with no dependencies
# outside the standard library, so every target is a thin go-tool
# wrapper kept here for discoverability. `make ci` runs the exact steps
# of .github/workflows/ci.yml, so the gate is reproducible locally.

GO ?= go
FUZZTIME ?= 10s
# Pinned staticcheck version, run via `go run` so nothing is installed
# into the toolchain; bump deliberately alongside Go upgrades.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check ci build vet test race perfbench-test fmt-check staticcheck cover \
	fuzz-smoke bench-smoke bench bench-metrics bench-parallel \
	bench-capture bench-compare bench-gate loadtest-gate loadtest-bless \
	clean

## check: the full pre-commit gate — identical to CI (vet, fmt, build,
## test, race, fuzz smoke, staticcheck).
check: ci

## ci: mirror of the GitHub workflow jobs, step for step.
ci: vet fmt-check build test race perfbench-test fuzz-smoke staticcheck bench-gate loadtest-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order every run so inter-test state
# dependencies surface in CI instead of in production.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

## perfbench-test: the repository benchmark's own tests (plan
## determinism, the oracle rejecting perturbed replies, the metric names
## in BENCHMARK.json). perfbench/ is a module of its own, so the root
## `go test ./...` never reaches it.
perfbench-test:
	cd perfbench && $(GO) test ./...

## fmt-check: fail when any file needs gofmt (CI's formatting gate).
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

## staticcheck: honnef.co/go/tools at the pinned version (downloads on
## first run; requires network, so it is its own CI job rather than a
## tier-1 gate).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

## cover: the test suite with coverage, writing coverage.out (uploaded
## by CI as an artifact) and printing the per-package summary. Asserts
## the load-bearing subsystems are actually exercised — a suite that
## silently stopped importing internal/policy, the adaptive estimators,
## or the sharded cache/state plane would otherwise pass while covering
## nothing.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@for probe in \
		'^idlereduce/internal/policy/' \
		'^idlereduce/internal/predict/' \
		'^idlereduce/internal/adaptive/' \
		'^idlereduce/internal/ledger/' \
		'^idlereduce/internal/server/cache\.go' \
		'^idlereduce/internal/server/observe\.go' \
		'^idlereduce/internal/server/snapshot\.go'; do \
		grep "$$probe" coverage.out | grep -qv ' 0$$' \
			|| { echo "cover: $$probe has no covered statements"; exit 1; }; \
		echo "cover: $$probe exercised"; \
	done

## fuzz-smoke: run every Fuzz* target for FUZZTIME (default 10s) as a
## quick regression sweep; the corpus findings become seed cases.
fuzz-smoke:
	@set -e; \
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

## bench-smoke: one fast iteration-bounded pass over every benchmark,
## plus the instrumented-simulator metrics snapshot (bench-metrics.json)
## CI uploads for the perf trajectory.
bench-smoke:
	$(GO) test -bench . -benchtime 100x -run '^$$' . ./internal/server | tee bench-smoke.txt
	IDLEREDUCE_BENCH_METRICS=$(CURDIR)/bench-metrics.json \
		$(GO) test -bench 'BenchmarkSimulatorObs' -benchtime 100x -run '^$$' .
	@echo wrote bench-smoke.txt bench-metrics.json

## bench: every table/figure benchmark plus the ablations and the
## observability overhead pair (SimulatorObsOff vs SimulatorObsOn).
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

## bench-metrics: run the instrumented simulator benchmark and write its
## metrics registry snapshot to bench-metrics.json (see
## docs/OBSERVABILITY.md).
bench-metrics:
	IDLEREDUCE_BENCH_METRICS=$(CURDIR)/bench-metrics.json \
		$(GO) test -bench 'BenchmarkSimulatorObs' -run '^$$' .
	@echo wrote bench-metrics.json

## bench-parallel: the serial-vs-pooled pairs over the engine's fan-out
## sites (fleet generation, grid fill, fleet evaluation, traffic sweep);
## compare each <name>/serial line against <name>/pool (see
## docs/PARALLELISM.md).
bench-parallel:
	$(GO) test -bench 'BenchmarkParallel' -benchmem -run '^$$' .

# The perf trajectory (docs/BENCHMARKS.md): BENCH_BASELINE is the
# newest committed BENCH_NNNN.json; the head capture is written to
# BENCH_head.json (named so the wildcard never picks it up as a
# baseline). BENCH_SCALE trades capture time for noise; BENCH_RUNS is
# the min-of-N noise filter depth (5 here — deeper than the CLI's
# default 3 — because gate captures run on busy CI machines).
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_[0-9]*.json)))
BENCH_HEAD ?= BENCH_head.json
BENCH_SCALE ?= 1
BENCH_RUNS ?= 5
BENCH_MAX_REGRESS ?= 10%

## bench-capture: capture the structured benchmark suites into
## $(BENCH_HEAD) via `idlectl bench run`.
bench-capture:
	$(GO) run ./cmd/idlectl bench run -runs $(BENCH_RUNS) -scale $(BENCH_SCALE) -out $(BENCH_HEAD)

## bench-compare: diff the head capture against the committed baseline
## and fail on any regression beyond tolerance.
bench-compare:
	$(GO) run ./cmd/idlectl bench compare -base $(BENCH_BASELINE) -head $(BENCH_HEAD) -max-regress $(BENCH_MAX_REGRESS)

## bench-gate: the CI regression gate — capture, then compare against
## the newest committed BENCH_NNNN.json. Skips gracefully (with a
## visible note) when no baseline is committed, so forks and fresh
## branches are not blocked.
bench-gate:
ifeq ($(BENCH_BASELINE),)
	@echo "bench-gate: no committed BENCH_NNNN.json baseline; skipping"
else
	$(MAKE) bench-capture
	$(MAKE) bench-compare
endif

# The macro loadtest gate (docs/SERVER.md): a fixed 100k-area mixed
# decide/observe scenario measured in-process and compared against the
# committed LOADTEST_BASELINE.json — p99 (speed-canary normalized),
# cache hit-rate, and the CUSUM retune loop actually firing.
LOADTEST_BASELINE ?= LOADTEST_BASELINE.json

## loadtest-gate: run the committed load scenario and gate against
## $(LOADTEST_BASELINE). Skips gracefully (with a visible note) when no
## baseline is committed, so forks and fresh branches are not blocked.
loadtest-gate:
ifeq ($(wildcard $(LOADTEST_BASELINE)),)
	@echo "loadtest-gate: no committed $(LOADTEST_BASELINE); skipping"
else
	$(GO) run ./cmd/idled loadgate -baseline $(LOADTEST_BASELINE)
endif

## loadtest-bless: re-measure the committed scenario on this machine and
## overwrite $(LOADTEST_BASELINE) (commit the result deliberately).
loadtest-bless:
	$(GO) run ./cmd/idled loadgate -baseline $(LOADTEST_BASELINE) -bless

clean:
	rm -f bench-metrics.json bench-smoke.txt coverage.out cpu.pprof mem.pprof trace.out \
		$(BENCH_HEAD)
