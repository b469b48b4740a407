#!/usr/bin/env sh
# Reports where the benchmark binary's core probe (bench/probe.go) was
# linked. The probe's loop runs ~1.8x faster when main.probe starts at 0
# mod 64 than at 32 mod 64, and every corrected rate the harness prints is
# divided by the probe's reading, so a PR's corrected rates compare with
# its parent's only when both binaries put main.probe in the same class.
# Any change to the root module can move it: look here before measuring.
# Reports, never fails.
cd "$(dirname "$0")/.." || exit 0
bin=$(mktemp) || exit 0
trap 'rm -f "$bin"' EXIT
if ! go build -C bench -o "$bin" . 2>/dev/null; then
	echo "probe-align: could not build the bench binary"
	exit 0
fi
addr=$(go tool nm "$bin" | awk '$3 == "main.probe" { print $1 }')
if [ -z "$addr" ]; then
	echo "probe-align: main.probe not found in the bench binary"
	exit 0
fi
echo "probe-align: main.probe at 0x$addr, $((0x$addr % 64)) mod 64"
