#!/bin/sh
# fma_audit.sh — fail if the arm64 build of internal/sampling contains a
# fused multiply-add.
#
# The Go spec lets a compiler fuse x*y + z into one instruction that
# rounds once instead of twice, and the arm64 backend does so whenever
# a product feeds an add. A fused sampler draws different bits on arm64
# than on amd64 (which does not fuse at the default GOAMD64=v1), so the
# samplers block every such product with an explicit float64(...)
# conversion, which the spec says rounds. This audit compiles the
# package for arm64 (compile only: no arm64 machine, no network) and
# fails on any FMADDD, FMSUBD, FNMADDD or FNMSUBD in its assembly.
#
# Usage: scripts/fma_audit.sh
set -eu
cd "$(dirname "$0")/.."

PKG=./internal/sampling
asm="$(GOARCH=arm64 go build -gcflags=-S "$PKG" 2>&1)"
# The listing must cover the package: an empty listing would pass
# vacuously.
if ! printf '%s\n' "$asm" | grep -q 'binomialBTRS STEXT'; then
	echo "fma_audit: no arm64 assembly listing for $PKG" >&2
	exit 1
fi
fused="$(printf '%s\n' "$asm" | grep -E '[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]' || true)"
if [ -n "$fused" ]; then
	echo "fma_audit: fused multiply-adds in the arm64 build of $PKG:" >&2
	printf '%s\n' "$fused" >&2
	exit 1
fi
echo "fma_audit: no fused multiply-add in the arm64 build of $PKG"
