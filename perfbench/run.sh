#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout, then runs it:
#
#   bash perfbench/run.sh --workload <paper|million|serve|ingest> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout: the
# Go build cache, the binary, run stores and trace files. Build output
# goes to stderr, so the benchmark's last stdout line is its result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -work "$out/work" "$@"
