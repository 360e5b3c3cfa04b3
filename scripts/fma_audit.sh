#!/bin/sh
# fma_audit.sh — fail if the arm64 build of a draw- or result-affecting
# package contains a fused multiply-add.
#
# The Go spec lets a compiler fuse x*y + z into one instruction that
# rounds once instead of twice, and the arm64 backend does so whenever
# a product feeds an add. A fused line computes different bits on arm64
# than on amd64 (which does not fuse at the default GOAMD64=v1), so
# these packages block every such product with an explicit
# float64(...) conversion, which the spec says rounds. This audit
# compiles each package for arm64 (compile only: no arm64 machine, no
# network) and fails on any FMADDD, FMSUBD, FNMADDD or FNMSUBD in its
# assembly. Inlined code counts where it lands: stats' Welford update
# is audited through sim and obs, which inline it, and stats itself is
# audited for its quantiles, histogram centres, fits and test
# statistics.
#
# Usage: scripts/fma_audit.sh
set -eu
cd "$(dirname "$0")/.."

fail=0
# audit PKG SYMBOL : SYMBOL is a function the package's listing must
# contain — an empty or truncated listing would pass vacuously.
audit() {
	asm="$(GOARCH=arm64 go build -gcflags=-S "$1" 2>&1)"
	if ! printf '%s\n' "$asm" | grep -q "$2 STEXT"; then
		echo "fma_audit: no arm64 assembly listing for $1 (missing $2)" >&2
		exit 1
	fi
	fused="$(printf '%s\n' "$asm" | grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' || true)"
	if [ -n "$fused" ]; then
		echo "fma_audit: fused multiply-adds in the arm64 build of $1:" >&2
		printf '%s\n' "$fused" >&2
		fail=1
	fi
}

audit ./internal/sampling 'binomialBTRS'
audit ./internal/sim 'BallCount'
audit ./internal/xrand 'Binomial'
audit ./internal/obs 'SnapshotHist'
audit ./internal/stats 'Linear'
if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "fma_audit: no fused multiply-add in the arm64 builds of sampling, sim, xrand, obs and stats"
