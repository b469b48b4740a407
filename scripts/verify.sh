#!/usr/bin/env sh
# Tier-1 verification for stackedsim: the baseline
# `go build ./... && go test ./...` gate plus formatting, vet, the whole
# tree under the race detector (-short skips only the real-window
# stability sweep, which the plain pass covers), one iteration of every
# micro-benchmark in the module, one run of every examples/ program, and
# the benchmark harness's own smoke test — bench/ is a separate module
# the root commands do not descend into, so a root-module change could
# otherwise break it unnoticed.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# internal/core composes the machine; what watches it lives beside it
# (internal/powerthermal) and reaches it through System.Observe. A model
# package imported here again means an observer has moved back in.
echo "== internal/core imports neither internal/thermal nor internal/floorplan"
if go list -f '{{join .Imports "\n"}}' ./internal/core | grep -E 'internal/(thermal|floorplan)$'; then
	echo "verify: internal/core imports the packages above" >&2
	exit 1
fi

# The hierarchy's recurring shapes have one implementation each:
# cache.Outbox (refusal-and-retry toward a Port), sim.Delay (a
# fixed-latency pipe) and sim.Pool (a free list). Two pools stay
# hand-written because they guard a double release (attrib.Tag,
# mem.Request), and two components keep the heap because their delays
# vary and their event kinds share one same-cycle order (cache.L2,
# memctrl.Controller).
echo "== no free list outside sim.Pool, no sim.EventQueue outside cache/l2.go and memctrl"
src() { grep -rnE "$1" --include='*.go' internal | grep -v '_test\.go:' | grep -vE "^internal/($2)" || true; }
moved=$(
	src '^[[:space:]]*free[A-Za-z_]*[[:space:]]+\[\]\*' 'sim/|attrib/attrib\.go:[0-9]+:.*\*Tag$|mem/request\.go:[0-9]+:.*\*Request$'
	src 'sim\.EventQueue' 'sim/|cache/l2\.go:|memctrl/'
)
if [ -n "$moved" ]; then
	echo "$moved" >&2
	echo "verify: a hand-rolled pool or heap has moved back in" >&2
	exit 1
fi

# A miss's life is recorded once, on its attribution tag: the Chrome
# trace is drawn from finished tags by attrib.Collector, which core hands
# the tracer. A component holding a tracer, or a request carrying a trace
# mark, is a second recorder of the same misses.
echo "== no *telemetry.Tracer outside telemetry, attrib, core and cmd/; no trace field on mem.Request"
hooks=$(
	grep -rn --include='*.go' '\*telemetry\.Tracer' internal cmd | grep -v '_test\.go:' | grep -vE '^(internal/(telemetry|attrib|core)/|cmd/)' || true
	awk '/^type Request struct/,/^}/' internal/mem/request.go | grep -E '^[[:space:]]*[A-Za-z_]*[Tt]rac[A-Za-z_]*[[:space:]]' || true
)
if [ -n "$hooks" ]; then
	echo "$hooks" >&2
	echo "verify: a second trace recorder has moved back in" >&2
	exit 1
fi

# Per-access state lives where the modelled hardware keeps it: a page's
# frame in its TLB entry, a prefetched line's untouched mark in its cache
# way, a controller's misses in a bounded cache.MissTable. A pfPending
# set or a misses map in the caches, or a Translate call in the core
# outside the no-ITLB fetch fallback (the TLBs translate on an entry's
# first hit, in internal/tlb), puts a map lookup back on every access.
echo "== no pfPending or misses map in the caches; the core translates only without an ITLB"
maps=$(
	grep -rnE 'pfPending|^[[:space:]]*misses[[:space:]]+map\[' --include='*.go' internal/cache internal/coherence/privl2.go | grep -v '_test\.go:' || true
	for f in internal/cpu/*.go internal/tlb/*.go; do
		case $f in *_test.go) continue ;; esac
		awk '/Translate\(/ && prev !~ /if (c\.it == nil|e\.frame == noFrame) \{/ { print FILENAME ":" FNR ":" $0 } { prev = $0 }' "$f"
	done
)
if [ -n "$maps" ]; then
	echo "$maps" >&2
	echo "verify: a per-access map lookup has moved back in" >&2
	exit 1
fi

# The many-core fabric keeps its bookkeeping flat: a directory bank's
# lines are the slots of its open-addressed table, and a mesh input
# port's FIFO is chained through its messages. A map in the directory or
# a sim.Queue in the mesh puts a hashed lookup back on every protocol
# step, or a separate ring back on every hop.
echo "== no map in the directory bank, no sim.Queue in the mesh"
flat=$(
	grep -n 'map\[' internal/coherence/directory.go internal/coherence/dirtable.go || true
	grep -Hn 'sim\.Queue' internal/noc/noc.go || true
)
if [ -n "$flat" ]; then
	echo "$flat" >&2
	echo "verify: a map or a ring queue has moved back into the fabric" >&2
	exit 1
fi

# A command is `func main() { os.Exit(run(args, stdout, stderr)) }` and
# nothing else exits: deferred cleanups run on every path, and the exit
# codes and messages are tested in-process by its main_test.go.
echo "== every cmd/ has a main_test.go and exits only from func main"
exits=$(
	for d in cmd/*/; do [ -f "${d}main_test.go" ] || echo "$d has no main_test.go"; done
	grep -nE 'os\.Exit\(|flag\.ExitOnError' cmd/*/*.go | grep -v '_test\.go:' | grep -v ':func main() {' || true
)
if [ -n "$exits" ]; then
	echo "$exits" >&2
	echo "verify: a command cannot be tested in-process" >&2
	exit 1
fi

echo "== go test ./..."
go test ./...

echo "== go test -race -short ./..."
go test -race -short ./...

# Every micro-benchmark in the module once: they measure single layers
# (the mesh, the queue, the cache array) and nothing else runs them, so
# this is what keeps them compiling and their own checks passing. The
# whole module, not only internal/, so that a benchmark added anywhere
# runs too; the end-to-end measurements are bench/'s.
echo "== go test -run '^\$' -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x ./...

# Every examples/ program once, to a zero exit. go build compiles them
# and nothing else runs them; EXPERIMENTS.md quotes examples/thermal.
echo "== every examples/ program runs"
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT
go build -o "$exdir/" ./examples/...
for ex in "$exdir"/*; do
	if ! "$ex" >/dev/null; then
		echo "verify: examples/$(basename "$ex") failed" >&2
		exit 1
	fi
done

echo "== go vet -C bench ./... && go test -C bench ./..."
go vet -C bench ./...
go test -C bench ./...

echo "verify: OK"
# Reported, never gated on: where the benchmark's core probe was linked
# (decides whether corrected rates compare with the parent's), the
# exported names nothing outside tests calls (where the deletion audit
# looks next), and the sizes simplicity PRs quote — the total, the
# internal/core + cmd/stacksim sum the ROADMAP tracks, cmd/stacksim alone,
# and internal/powerthermal, which left internal/core in PR 22: lines that
# move between core and it are relocated, not removed. When the working
# tree differs from HEAD, HEAD's bench is built too and both classes are
# printed: a change that adds or removes one function can move the probe.
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	scripts/probe-align.sh HEAD || true
else
	scripts/probe-align.sh
fi
scripts/uncalled.sh
lines() { find "$@" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l | tr -d ' '; }
echo "verify: $(lines cmd internal) non-test Go lines under cmd/ internal/ ($(lines internal/core cmd/stacksim) in internal/core + cmd/stacksim, $(lines cmd/stacksim) of them in cmd/stacksim, $(lines internal/powerthermal) in internal/powerthermal)"
