GO ?= go

.PHONY: all fmt build vet test race fuzz bench-smoke bench-hot bench-e2e scale-smoke cover staticcheck ci

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
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzNavVector$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzMixedParse$$' -fuzztime $(FUZZTIME) ./internal/topo

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

# End-to-end benchmark check: vet the bench module, which is its own
# module and so outside the root `vet` target, then run its tests, which
# build cmd/slserve from this checkout, drive every BENCHMARK.json
# workload against it for 1 s and check the sampled answers against a
# reference core.Router (about 45 s on 2 vCPUs). Real measurements are
# `bash bench/run.sh`; see bench/README.md.
bench-e2e:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Million-node scale gate: cold GS over the full Q20 cube plus one
# incremental repair, under a wall-clock budget (see
# internal/core/scale_test.go). Exercises the flat SoA core at the
# size the refactor targets. -count=1 re-measures on every run instead
# of replaying the cached timings.
scale-smoke:
	SCALE_SMOKE=1 $(GO) test -count=1 -run '^TestScaleSmokeQ20$$' -timeout 150s -v ./internal/core

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
