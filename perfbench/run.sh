#!/usr/bin/env bash
# Builds rdfind and the benchmark from source, then measures one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write stays
# under $CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr;
# the last line of stdout is the benchmark's JSON result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/rdfind || ! -f perfbench/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/rdfind and perfbench/ must exist)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" "$TMPDIR" "$XDG_CONFIG_HOME"

go build -o "$out/bin/rdfind" ./cmd/rdfind >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -rdfind "$out/bin/rdfind" -workdir "$out/work" "$@"
