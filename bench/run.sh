#!/usr/bin/env bash
# Builds slbench (this benchmark) and cmd/slserve from this checkout,
# then runs slbench with the given arguments, for example
#
#	bash bench/run.sh --workload q10-unicast --seed 1 --seconds 10 --trace 0
#
# Binaries and the Go build cache live in .bench_build/ at the
# repository root, so a run reads and writes nothing outside the
# checkout. Build output goes to stderr; stdout carries only the
# benchmark's report.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/slbench" .) >&2
(cd "$root" && go build -o "$out/slserve" ./cmd/slserve) >&2
cd "$root"
exec "$out/slbench" -slserve "$out/slserve" "$@"
