#!/usr/bin/env sh
# Reports where the benchmark binary's core probe (bench/probe.go) was
# linked. The probe's loop runs ~1.8x faster when main.probe starts at 0
# mod 64 than at 32 mod 64, and every corrected rate the harness prints is
# divided by the probe's reading, so a PR's corrected rates compare with
# its parent's only when both binaries put main.probe in the same class.
# Any change to the root module can move it: look here before measuring.
#
#   scripts/probe-align.sh          reports the working tree; never fails
#   scripts/probe-align.sh HEAD~1   also builds bench as of that revision,
#                                   in a throw-away copy under mktemp -d,
#                                   and exits 1 when the classes differ
cd "$(dirname "$0")/.." || exit 0
tmp=$(mktemp -d) || exit 0
trap 'rm -rf "$tmp"' EXIT

# report <label> <tree> prints where <tree>'s bench binary has main.probe
# and leaves its class in $class (empty when there is none to report).
report() {
	class=
	if ! go build -C "$2/bench" -o "$tmp/bench" . 2>/dev/null; then
		echo "probe-align: could not build the bench binary of $1"
		return
	fi
	addr=$(go tool nm "$tmp/bench" | awk '$3 == "main.probe" { print $1 }')
	if [ -z "$addr" ]; then
		echo "probe-align: main.probe not found in the bench binary of $1"
		return
	fi
	class=$((0x$addr % 64))
	echo "probe-align: main.probe at 0x$addr, $class mod 64${3:+ ($1)}"
}

if [ $# -eq 0 ]; then
	report "the working tree" .
	exit 0
fi
mkdir "$tmp/rev"
if ! git archive "$1" 2>/dev/null | tar -x -C "$tmp/rev" 2>/dev/null; then
	echo "probe-align: no tree for revision $1" >&2
	exit 2
fi
report "the working tree" . labelled
here=$class
report "$1" "$tmp/rev" labelled
if [ -z "$here" ] || [ "$here" != "$class" ]; then
	echo "probe-align: the classes differ: corrected rates of the two do not compare" >&2
	exit 1
fi
