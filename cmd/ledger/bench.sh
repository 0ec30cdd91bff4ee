#!/usr/bin/env bash
# Builds the ledger benchmark and cecd from source, then runs the ledger
# with the given arguments. Run it from the repository root:
#
#   bash cmd/ledger/bench.sh -seed 1
#   bash cmd/ledger/bench.sh --workload datapath --seed 1 --seconds 20 --trace 0
#
# The binaries and Go's build cache stay under $CARGO_TARGET_DIR (default
# .bench_build) in the working directory; nothing is fetched.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f cmd/ledger/go.mod ]; then
	echo "bench.sh: run from the repository root (go.mod and cmd/ledger/go.mod needed)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" HOME="$out/home" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C cmd/ledger build -o "$out/ledger" .
go -C cmd/ledger build -o "$out/cecd" simsweep/cmd/cecd
exec "$out/ledger" -cecd "$out/cecd" "$@"
