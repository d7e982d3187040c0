#!/usr/bin/env bash
# check_no_fma.sh — fails when an arm64 build fuses a multiply and an add
# in code whose bits are a contract.
#
# Go may fuse x*y + z into one instruction on arm64 (FMADDD and its
# relatives), which rounds once where the separate multiply and add round
# twice. The kernels' generic tier must equal its references and the
# assembly tiers bit for bit, direct dot-product rows must equal
# series.Dot, a stream must equal a rebuild, the lower bound decides
# certification and the cost model the switch length, so internal/kernels,
# internal/series, internal/lb and the files directly under internal/core
# round every product with an explicit float64(…) before it meets an add.
# This script cross-compiles the kernels, series, lb and core test
# binaries and cmd/valmod for arm64, disassembles them, maps every FMADDD,
# FMSUBD, FNMADDD and FNMSUBD to its source position (inlined copies
# included) and fails on any whose position is a non-test file of those
# packages. internal/core's subpackages, internal/fft, internal/gen and
# internal/stomp are not checked yet.
#
# Usage: scripts/check_no_fma.sh  (from the repo root; needs only go)
set -euo pipefail

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

GOARCH=arm64 go test -c -o "$WORK/kernels.test" ./internal/kernels
GOARCH=arm64 go test -c -o "$WORK/series.test" ./internal/series
GOARCH=arm64 go test -c -o "$WORK/lb.test" ./internal/lb
GOARCH=arm64 go test -c -o "$WORK/core.test" ./internal/core
GOARCH=arm64 go build -o "$WORK/valmod" ./cmd/valmod

fail=0
for bin in "$WORK"/kernels.test "$WORK"/series.test "$WORK"/lb.test "$WORK"/core.test "$WORK"/valmod; do
	# objdump lines read "file:line  address  encoding  OPCODE operands";
	# addr2line turns each address into "function\nfile:line" with the
	# full path of the innermost inlined source.
	hits=$(go tool objdump "$bin" |
		awk '$4 ~ /^(FMADDD|FMSUBD|FNMADDD|FNMSUBD)$/ {print $2}' |
		go tool addr2line "$bin" |
		paste - - |
		awk '$2 ~ /\/internal\/(kernels|series|lb|core)\/[^\/]+\.go:/ && $2 !~ /_test\.go:/' |
		sort | uniq -c)
	if [ -n "$hits" ]; then
		echo "$(basename "$bin"): fused multiply-adds in internal/kernels, series, lb or core:"
		echo "$hits"
		fail=1
	fi
done
if [ "$fail" -ne 0 ]; then
	echo "round each product with an explicit float64(…) before it meets an add" >&2
	exit 1
fi
echo "no fused multiply-adds in internal/kernels, series, lb or core (arm64)"
