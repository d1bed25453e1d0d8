GO ?= go

.PHONY: all fmt build vet test race fuzz bench-smoke bench-hot bench-json bench-e2e load-smoke scenario-smoke diagnose-smoke scale-smoke cover staticcheck ci

all: ci

# Fails if any file needs gofmt (mirrors the CI Format step).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short coverage-guided runs of every fuzz target (seed corpora live
# under the packages' testdata/fuzz directories). FUZZTIME tunes the
# budget per target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLevelFromSorted$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzComputeAndRoute$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRepairLevels$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzChurnSchedule$$' -fuzztime $(FUZZTIME) ./internal/simnet
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/wire

# One iteration of every benchmark: catches bit-rot in the measurement
# code without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The hot-path benchmark set the CI bench-gate watches. BENCH_OUT
# captures the raw output for benchstat / internal/ci/benchgate; the
# regex must stay in sync with benchgate's default -match. -benchmem
# makes every benchmark report allocs/op so the gate can fail on
# allocation regressions, not just time.
BENCH_HOT = Benchmark(Unicast|GS|Repair|Serve|Flight|Wire)
BENCH_COUNT ?= 6
BENCH_OUT ?= bench.txt
bench-hot:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchtime 200ms -benchmem \
		-count $(BENCH_COUNT) -timeout 30m ./... | tee $(BENCH_OUT)

# Regenerate BENCH_1.json (the instrumentation-overhead evidence),
# BENCH_2.json (the parallel-GS sweep vs the sequential baseline),
# BENCH_3.json (incremental repair vs cold GS under churn),
# BENCH_4.json (snapshot serving vs the mutex-guarded facade under a
# churn storm), BENCH_5.json (serving-path tail latency under a churn
# storm, with vs without admission control — EXPERIMENTS.md E17) and
# BENCH_7.json (flat SoA data plane vs the BENCH_3 map-based baseline).
# BENCH_6.json (flight-recorder overhead) and BENCH_8.json (wire vs
# HTTP/JSON) are history: `bash bench/run.sh -trace 1` re-measures them
# as the ladder rows obs.flight_overhead_pct and ratio.http_over_wire.
bench-json:
	EMIT_BENCH_JSON=1 $(GO) test -run TestEmitBenchJSON .

# End-to-end benchmark check: vet the bench module, which is its own
# module and so outside the root `vet` target, then run its tests, which
# build cmd/slserve from this checkout, drive every BENCHMARK.json
# workload against it for 1 s and check the sampled answers against a
# reference core.Router (about 45 s on 2 vCPUs). Real measurements are
# `bash bench/run.sh`; see bench/README.md.
bench-e2e:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Tiny in-process load-generation run (cmd/slload driving the serving
# engine under a churn storm); TestRunInProcess fails unless at least
# 500 requests complete OK. Wired into CI as an end-to-end smoke of the
# hardened serving path. See docs/OPERATIONS.md for real measurement
# recipes.
load-smoke:
	$(GO) test -run '^TestRunInProcess$$' ./cmd/slload

# Correlated-fault scenario smoke: TestRunScenario runs one short
# seeded slload pass per scenario profile against the in-process engine
# (the schedule replays through the same Target.ApplyEvent surface an
# HTTP run uses), gated on at least 200 OK requests each, beside the
# scenario unit/differential suites.
scenario-smoke:
	$(GO) test -run 'TestScenario|TestRunScenario|TestScheduleReplay' ./...

# Syndrome-diagnosis smoke: close the test→diagnose→journal→route loop
# end to end. TestRunScenarioDiagnosed runs a seeded scenario whose
# churn schedule is produced by PMC syndrome diagnosis instead of
# declared faults (-diagnosed), gated only-OK under the invert and
# random adversaries: within the diagnosability bound the diagnosed
# schedule must be indistinguishable from the truth. Beside it run the
# decoder differentials and the journal/replay suites.
diagnose-smoke:
	$(GO) test -run 'TestDiagnose|TestDecode|TestLocal|TestSyndrome|TestReplay|TestReconciler|TestDedup|TestScheduleReplayDiagnosed|TestRunScenarioDiagnosed' ./...

# Million-node scale gate: cold GS over the full Q20 cube plus one
# incremental repair, under a wall-clock budget (see
# internal/core/scale_test.go). Exercises the flat SoA core at the
# size the refactor targets.
scale-smoke:
	SCALE_SMOKE=1 $(GO) test -run '^TestScaleSmokeQ20$$' -timeout 150s -v ./internal/core

# Whole-repo statement coverage, gated by the ratcheting floor in
# .github/coverage-floor.txt (raise it when new tests push it up; CI
# fails if total coverage drops below it).
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat .github/coverage-floor.txt); \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { \
		if (t + 0 < f + 0) { printf "coverage %.1f%% is below the floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Static analysis; skipped with a notice when staticcheck is not on
# PATH (the container has no network to install it — CI installs it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

ci: fmt vet build race bench-smoke staticcheck
