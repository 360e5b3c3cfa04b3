#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it with the given
# flags, from the root of a checkout:
#
#   bash bench/run.sh --workload paper-classic --seed 1 --seconds 20 --trace 0
#
# Every build artefact (the binary, Go's build cache, module, config and
# temporary directories) goes under .bench_build/ in the checkout, and the Go
# toolchain is pinned to the local one with the module proxy off, so the
# build never leaves the checkout or touches the network. A failed build
# exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
