#!/usr/bin/env sh
# Tier-1 verification for stackedsim: the baseline
# `go build ./... && go test ./...` gate plus formatting, vet, the whole
# tree under the race detector (-short skips only the real-window
# stability sweep, which the plain pass covers), ten seconds of fuzzing
# the directory table and five the page table, one iteration of every
# micro-benchmark in the module, and the benchmark harness's own smoke
# test — bench/ is a separate module
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

# The power and thermal model is one package, internal/powerthermal: the
# energy accounting, the floorplan, the stack's thermal network and the
# tracker that watches a run through System.Observe. It alone picks the
# energies a channel is charged at and counts what a channel did;
# internal/core asks it for a run's energy. A split-off power, thermal or
# floorplan package, an examples/ program, or internal/core choosing
# DDR2()/Stacked3D() parameters or calling Account( itself brings the
# second copy of a decision back.
echo "== one power/thermal package, and internal/core accounts no energy itself"
for dir in internal/power internal/thermal internal/floorplan examples; do
	if [ -e "$dir" ]; then
		echo "verify: $dir exists; it belongs in internal/powerthermal or experiments -exp tsv" >&2
		exit 1
	fi
done
if grep -nE 'DDR2\(\)|Stacked3D\(\)|Account\(' internal/core/*.go | grep -v '_test\.go:'; then
	echo "verify: internal/core makes an energy decision internal/powerthermal owns" >&2
	exit 1
fi

# The hierarchy's recurring shapes have one implementation each:
# cache.Outbox (refusal-and-retry toward a Port), sim.Delay (a
# fixed-latency pipe) and sim.Pool (a free list, grown a slab at a
# time). sim.Pool is the only free list: the two pools that guard a
# double release (attrib.Tag, mem.Request) mark their nodes and keep them
# in one. Two components keep the heap because their delays vary and
# their event kinds share one same-cycle order (cache.L2,
# memctrl.Controller).
echo "== no free list outside sim.Pool, no sim.EventQueue outside cache/l2.go and memctrl"
src() { grep -rnE "$1" --include='*.go' internal | grep -v '_test\.go:' | grep -vE "^internal/($2)" || true; }
moved=$(
	src '^[[:space:]]*free[A-Za-z_]*[[:space:]]+\[\]\*' 'sim/'
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

# What an L1 miss runs when its line arrives is a cache.Waiter, a
# function shared by many misses and the int that tells them apart: a
# slice of funcs in the core or the L1 is a closure per ROB slot or per
# waiter back on every machine built.
echo "== no []func( in internal/cpu or internal/cache/l1.go"
funcs=$(grep -nE '\[\]func\(' internal/cpu/*.go internal/cache/l1.go | grep -v '_test\.go:' || true)
if [ -n "$funcs" ]; then
	echo "$funcs" >&2
	echo "verify: a slice of fill callbacks has moved back in" >&2
	exit 1
fi

# A protocol message waits in at most one place: in its sender's retry
# queue, its receiver's inbox or its directory record's deferred FIFO,
# each a sim.List threaded through the Link of the noc.Header the message
# embeds, in the mesh (on the same link) or a bank's lookup pipe, or held
# as a private-L2 miss's one early forward. A slice of messages in the
# fabric is a queue that grows behind a hot line again, and one that a
# reused record or miss reallocates.
echo "== no []*message in internal/coherence"
msgs=$(grep -nF '[]*message' internal/coherence/*.go | grep -v '_test\.go:' || true)
if [ -n "$msgs" ]; then
	echo "$msgs" >&2
	echo "verify: a slice of protocol messages has moved back in" >&2
	exit 1
fi

# The queues a 64-core run fills and drains on every miss are sim.Lists
# threaded through what they hold: an endpoint's inbox and retry queue
# (the destination rides in the message's mesh header), a cache.Outbox's
# refused requests and a private L2's hits (through Request.Link). A ring
# of messages, an outMsg pair, a list type of the fabric's own or a ring
# in the Outbox grows by doubling, or keeps a second FIFO, again.
echo "== no outMsg, msgList or sim.Queue[*message] in internal/coherence, no sim.Queue in cache.Outbox"
rings=$(
	grep -nE 'outMsg|msgList|sim\.Queue\[\*message\]' internal/coherence/*.go | grep -v '_test\.go:' || true
	grep -Hn 'sim\.Queue' internal/cache/port.go || true
)
if [ -n "$rings" ]; then
	echo "$rings" >&2
	echo "verify: a ring queue has moved back onto the many-core request path" >&2
	exit 1
fi

# A request parked on a miss waits in a sim.List[*mem.Request] threaded
# through Request.Link: on an L2 MSHR entry, a private L2's miss, or a
# stack-layer block fetch, and on one of them at a time. A slice of
# requests is a waiter list that a recycled entry regrows again, and a
# Waitlist type a second FIFO beside the one list.
echo "== no []*mem.Request or Waitlist in internal/"
reqs=$(grep -rnE '\[\]\*(mem\.)?Request\b|\bWaitlist\b' --include='*.go' internal | grep -v '_test\.go:' || true)
if [ -n "$reqs" ]; then
	echo "$reqs" >&2
	echo "verify: a slice of parked requests has moved back in" >&2
	exit 1
fi

# A machine's L1s share one miss pool (cache.L1MissPool, made in core)
# and its private L2s one on the Fabric, and a writeback-buffer entry is
# a map value. A pool per controller is 192 pools grown one by one on a
# 64-core machine.
echo "== no missPool or wbPool field in internal/cache/l1.go or internal/coherence/privl2.go"
pools=$(grep -nE '^[[:space:]]*(missPool|wbPool)[[:space:]]+\*?sim\.Pool' internal/cache/l1.go internal/coherence/privl2.go || true)
if [ -n "$pools" ]; then
	echo "$pools" >&2
	echo "verify: a miss or writeback pool per controller has moved back in" >&2
	exit 1
fi

# Per-access state lives where the modelled hardware keeps it: a page's
# frame in its TLB entry and in a leaf of the page table, a prefetched
# line's untouched mark in its cache way, a controller's misses in a
# bounded cache.MissTable. A pfPending set or a misses map in the caches,
# a map in the page table, or a Translate call in the core outside the
# no-ITLB fetch fallback (the TLBs translate on an entry's first hit, in
# internal/tlb), puts a map lookup back on every access or TLB fill.
echo "== no pfPending or misses map in the caches, no map in the page table; the core translates only without an ITLB"
maps=$(
	grep -rnE 'pfPending|^[[:space:]]*misses[[:space:]]+map\[' --include='*.go' internal/cache internal/coherence/privl2.go | grep -v '_test\.go:' || true
	grep -Hn 'map\[' internal/mem/pagetable.go || true
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
# lines are the slots of its open-addressed table, the records of its
# lines in flight a slab beside it (both in dirtable.go), and a mesh input
# port's FIFO and wheel slot are sim.Lists chained through the headers of
# the messages. A map in the directory or a sim.Queue in the mesh puts a
# hashed lookup back on every protocol step, or a separate ring back on
# every hop.
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

# A FIFO of linkable objects is a sim.List: the element embeds a
# sim.Link, Push and PushFront panic on an element already on a list, and
# Len is the list's own count. A head and tail pointer pair, a pointer
# next field or a store through one outside internal/sim is a second
# hand-written list, with its own push and pop and no guard.
echo "== one intrusive list: no hand-threaded FIFO outside internal/sim"
fifos=$(grep -rnE 'head,[[:space:]]*tail[[:space:]]+\*|^[[:space:]]*next[[:space:]]+\*|\.(head|tail)\.next[[:space:]]*=[^=]|\.next[[:space:]]*=[[:space:]]*nil|\.next[[:space:]]*=[[:space:]]*[A-Za-z_.]*\.(head|tail)\b' \
	--include='*.go' internal cmd | grep -v '_test\.go:' | grep -v '^internal/sim/' || true)
if [ -n "$fifos" ]; then
	echo "$fifos" >&2
	echo "verify: a hand-threaded FIFO has moved back in beside sim.List" >&2
	exit 1
fi

# A message crosses the mesh as the noc.Header its client's message
# embeds and comes back to Deliver as that header, whose Body is the
# client's message: one object and one pool (the client's) per message.
# A field of type any in the mesh is a payload to assert back, and a
# sim.Pool there a second object per message that the mesh copies into
# and recycles.
echo "== the mesh owns no message: no any field and no sim.Pool in internal/noc"
owned=$(
	for f in internal/noc/*.go; do
		case $f in *_test.go) continue ;; esac
		grep -HnE '^[[:space:]]+[A-Za-z_][A-Za-z0-9_]*([[:space:]]*,[[:space:]]*[A-Za-z_][A-Za-z0-9_]*)*[[:space:]]+(any|interface[[:space:]]*\{[[:space:]]*\})([[:space:]]|$)|sim\.Pool' "$f"
	done || true
)
if [ -n "$owned" ]; then
	echo "$owned" >&2
	echo "verify: the mesh holds or pools its clients' messages again" >&2
	exit 1
fi

# The stack cache keeps one tag directory, in SRAM: a request reaches a
# stacked controller already resolved, and every controller completes
# what it serves. A routing bit on mem.Request, a second completion path
# in the layer, or a read of StackTagsInSRAM outside internal/config
# (the field stays only because every config's JSON, and so every RunID,
# carries it) brings the removed tags-in-DRAM mode back.
echo "== no StackDirect or RespondStacked under internal/, no StackTagsInSRAM outside internal/config"
tags=$(
	grep -rnE 'StackDirect|RespondStacked' --include='*.go' internal || true
	grep -rn 'StackTagsInSRAM' --include='*.go' cmd internal | grep -v '_test\.go:' | grep -v '^internal/config/' || true
)
if [ -n "$tags" ]; then
	echo "$tags" >&2
	echo "verify: a second tag-directory mode has moved back into the stack cache" >&2
	exit 1
fi

# A cut-off run is finished by rerunning it. A checkpoint held only a
# cursor and a digest, so a resume replayed every cycle from zero and
# saved nothing. The replay API, a worker's checkpoint interval, or a
# -checkpoint, -checkpoint-every or -resume flag brings the removed mode
# back.
echo "== no checkpoint/resume under cmd/ or internal/"
ckpt=$(grep -rnE 'RunCheckpointed|CheckpointPlan|LoadCheckpoint|NewSystemFromCheckpoint|CheckpointEvery|[A-Za-z0-9]\((&[^,]+, )?"(checkpoint|checkpoint-every|resume)",' \
	--include='*.go' cmd internal || true)
if [ -n "$ckpt" ]; then
	echo "$ckpt" >&2
	echo "verify: checkpoint/resume has moved back in" >&2
	exit 1
fi

# A sweep runs on one host: experiments -j fans the cells out over a
# worker pool and the run ledger skips the ones already recorded. The
# sim farm (a coordinator leasing cells to remote workers) had no
# figure, digest or bench workload reading it and went. Its packages,
# the seams only it used (core.FarmBackend, the monitor's FarmHandler
# and HealthFn) or a -farm flag bring it back.
echo "== no sim farm under cmd/ or internal/"
farm=$(
	for d in internal/farm cmd/simfarm; do if [ -e "$d" ]; then echo "$d exists"; fi; done
	grep -rnE 'FarmBackend|FarmHandler|HealthFn|[A-Za-z0-9]\((&[^,]+, )?"farm",' --include='*.go' cmd internal | grep -v '_test\.go:' || true
)
if [ -n "$farm" ]; then
	echo "$farm" >&2
	echo "verify: the sim farm has moved back in" >&2
	exit 1
fi

# The monitor is the live view of one simulation: recorded runs are read
# through statsdiff -ledger-dir, and a sweep reports on stderr. A ledger
# import or a ProgressFn in the monitor brings back the run browser or
# the sweep-progress plane; a time.After in core brings back the retried
# ledger write (a record gets one Put).
echo "== the monitor serves one live run; a ledger record gets one Put"
plane=$(
	grep -rnE '"stackedsim/internal/ledger"|ProgressFn' --include='*.go' internal/monitor | grep -v '_test\.go:' || true
	grep -rn 'time\.After' --include='*.go' internal/core | grep -v '_test\.go:' || true
)
if [ -n "$plane" ]; then
	echo "$plane" >&2
	echo "verify: the monitor serves more than one live run, or a ledger write is retried" >&2
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

# The directory table and its transaction-record slab against a map, past
# the seed corpus the plain pass runs: ten seconds of new inputs (slots
# moved by growth and shift-back deletion, records opened, deferred into,
# closed and recycled). A failing input is written under
# internal/coherence/testdata/fuzz and fails the plain pass from then on.
echo "== go test -run '^\$' -fuzz '^FuzzDirTable\$' -fuzztime 10s ./internal/coherence"
fuzzstart=$(date +%s)
go test -run '^$' -fuzz '^FuzzDirTable$' -fuzztime 10s ./internal/coherence
echo "verify: FuzzDirTable step took $(($(date +%s) - fuzzstart)) s"

# The page table's leaves, leaf-number table and hot-frame bitmap against
# the two-map table they replaced, past the seed corpus: five seconds of
# new translation streams over wrapping allocators. A failing input is
# written under internal/mem/testdata/fuzz and fails the plain pass.
echo "== go test -run '^\$' -fuzz '^FuzzPageTable\$' -fuzztime 5s ./internal/mem"
fuzzstart=$(date +%s)
go test -run '^$' -fuzz '^FuzzPageTable$' -fuzztime 5s ./internal/mem
echo "verify: FuzzPageTable step took $(($(date +%s) - fuzzstart)) s"

# Every micro-benchmark in the module once: they measure single layers
# (the mesh, the queue, the cache array) and nothing else runs them, so
# this is what keeps them compiling and their own checks passing. The
# whole module, not only internal/, so that a benchmark added anywhere
# runs too; the end-to-end measurements are bench/'s.
echo "== go test -run '^\$' -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x ./...

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
