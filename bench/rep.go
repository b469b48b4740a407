package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"stackedsim/internal/cpu"
)

// sizing is how much work a benchmark run does.
type sizing struct {
	// Timed reps per workload: at least reps, and as many more as it
	// takes for the run calls to have been measured for seconds.
	reps    int
	seconds float64
	// setupBuilds is how many machine builds setup_s is the median of.
	setupBuilds int
	// driveFor is how long each layer drive runs.
	driveFor time.Duration
	// obsCycles and obsReps size the observer-cost runs.
	obsCycles int64
	obsReps   int
}

// fullSize is the stand-alone run: every workload, ~2.5 min on 2 cores.
var fullSize = sizing{reps: 5, setupBuilds: 25, driveFor: 500 * time.Millisecond, obsCycles: 1_000_000, obsReps: 3}

// driverSize is one `--workload W --seconds S` run of the acceptance
// driver, which must take about S seconds whether traced or not.
func driverSize(seconds float64) sizing {
	return sizing{
		reps: 3, seconds: seconds, setupBuilds: 25,
		driveFor:  time.Duration(seconds / 40 * float64(time.Second)),
		obsCycles: 400_000, obsReps: 1,
	}
}

type harness struct {
	spec  *benchSpec
	suite []benchWorkload
	seed  int64
	size  sizing
	log   *spanLog // spans of the traced reps

	attempted, failed int
}

// workload finds a workload of the suite by name, or returns nil.
func (h *harness) workload(name string) *benchWorkload {
	for i := range h.suite {
		if h.suite[i].name == name {
			return &h.suite[i]
		}
	}
	return nil
}

// fail records one failed operation and says why.
func (h *harness) fail(what string, err error) {
	h.failed++
	fmt.Fprintf(logOut, "FAILED %s: %v\n", what, err)
}

// err reports the failed operations, if there were any.
func (h *harness) err() error {
	if h.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d operations failed", h.failed, h.attempted)
}

// rep is one checked run of a workload on a freshly built machine.
type rep struct {
	outcome
	setup      time.Duration
	calibMS    float64
	mallocs    uint64 // heap objects allocated during the run calls
	gcCount    uint32
	gcPause    time.Duration
	liveHeapMB float64 // see watchLiveHeap
}

// calibLoops sizes calibrate to ~25 ms.
const calibLoops = 10_000_000

var calibSink uint64

// calibrate times a fixed xorshift loop: one dependent chain, no
// memory. It shows stolen CPU time and reclocking but not a busy
// sibling hyperthread — which is most of this host's noise and is what
// the core probe is for. A calib_ms that moved says the machine
// changed; one that held does not say it did not.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibLoops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return float64(time.Since(t0)) / 1e6
}

// runRep builds w's machine and runs it once. sources, when non-nil,
// traces the μop sources. A run that fails its checks is counted and
// returned with ok false.
func (h *harness) runRep(w *benchWorkload, sources *sourceTracer) (r rep, ok bool) {
	h.attempted++
	var wrap func(cpu.UOpSource) cpu.UOpSource
	log := (*spanLog)(nil)
	if sources != nil {
		wrap, log = sources.wrap, h.log
	}
	r.calibMS = calibrate()
	runtime.GC()
	liveHeap := watchLiveHeap()
	defer liveHeap()
	var before, after runtime.MemStats
	id := log.begin(w.name, -1)
	defer log.end(id)
	var m machine
	var err error
	r.setup = log.timed("setup", id, func() { m, err = w.build(h.seed, wrap) })
	if err != nil {
		h.fail(w.name+" build", err)
		return r, false
	}
	runtime.ReadMemStats(&before)
	r.outcome, err = m.run(log, id)
	runtime.ReadMemStats(&after)
	if err != nil {
		h.fail(w.name+" run", err)
		return r, false
	}
	r.mallocs = after.Mallocs - before.Mallocs
	r.gcCount = after.NumGC - before.NumGC
	r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	runtime.GC()
	r.liveHeapMB = liveHeap()
	runtime.KeepAlive(m)
	return r, true
}

// watchLiveHeap polls for completed garbage collections and the bytes
// each found live, and returns a function that stops the polling and
// reports live_heap_mb: the 90th percentile of those readings. For one
// machine that is the heap it holds as its run ends, which the forced
// collection just before the stop measures exactly. For fig4 it is the
// two to three machines the worker pool keeps reachable at once; the
// maximum over a figure's ~200 collections depends on where they fall
// and wanders by 20 %, the 90th percentile by 2 %.
func watchLiveHeap() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	var seen uint64
	var live []float64
	read := func() {
		metrics.Read(sample)
		if cycles := sample[0].Value.Uint64(); cycles != seen {
			seen = cycles
			live = append(live, float64(sample[1].Value.Uint64())/(1<<20))
		}
	}
	read()
	live = live[:0] // the collection before the rep is not the rep's
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(liveHeapPoll)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	var once sync.Once
	return func() float64 {
		once.Do(func() {
			close(quit)
			<-done
			read()
			sort.Float64s(live)
		})
		if len(live) == 0 {
			return 0
		}
		return live[len(live)*9/10]
	}
}

// liveHeapPoll is short against the ~30 ms between collections of the
// busiest workload and costs a microsecond a poll.
const liveHeapPoll = 5 * time.Millisecond

// timedSet accumulates one workload's untraced, observer-free reps:
// the only source of end-to-end numbers.
type timedSet struct {
	w        *benchWorkload
	reps     []rep
	setups   []float64 // seconds per build
	paperErr float64
}

// measured is the wall time of the run calls so far.
func (s *timedSet) measured() (d time.Duration) {
	for i := range s.reps {
		d += s.reps[i].runWall()
	}
	return d
}

// addRep runs one more rep. Every rep of a workload must reproduce the
// first rep's digest: the simulator is deterministic for a seed.
func (h *harness) addRep(s *timedSet) {
	r, ok := h.runRep(s.w, nil)
	if !ok {
		return
	}
	if len(s.reps) > 0 && r.digest != s.reps[0].digest {
		h.fail(s.w.name+" rep", fmt.Errorf("digest %016x differs from the first rep's %016x", r.digest, s.reps[0].digest))
		return
	}
	s.reps = append(s.reps, r)
}

// measureSetup times setupBuilds builds at the core's uncontended
// speed. Each starts from a collected heap whose free memory has gone
// back to the OS, as a fresh process's build does: what the runtime
// happens to retain from earlier work otherwise halves the time.
func (h *harness) measureSetup(s *timedSet) {
	for i := 0; i < h.size.setupBuilds; i++ {
		debug.FreeOSMemory()
		before := probe()
		t0 := time.Now()
		_, err := s.w.build(h.seed, nil)
		d := time.Since(t0)
		if err != nil {
			h.fail(s.w.name+" setup", err)
			return
		}
		s.setups = append(s.setups, calm(d, before, probe()).Seconds())
	}
}

// measurePaperErr reads the model's distance from the paper: off the
// first rep's own figure on fig4, from a probe at the suite's fig4
// window elsewhere.
func (h *harness) measurePaperErr(s *timedSet) {
	if s.w.specs == nil {
		if len(s.reps) > 0 {
			s.paperErr = s.reps[0].paperErr
		}
		return
	}
	fig4 := h.workload("fig4")
	var err error
	if s.paperErr, err = newFig4Machine(h.seed, fig4.warmup, fig4.measure).paperErr(); err != nil {
		h.fail(s.w.name+" paper_err", err)
	}
}

// timedSets is the timed protocol: set-up builds, then reps taken
// round-robin across the workloads so that machine drift hits all of
// them alike, then the fidelity reading. It stops at the first failed
// operation; the numbers would not be reported anyway.
func (h *harness) timedSets(ws []*benchWorkload) []*timedSet {
	sets := make([]*timedSet, len(ws))
	for i, w := range ws {
		sets[i] = &timedSet{w: w}
		h.measureSetup(sets[i])
	}
	for round, more := 0, true; more && h.failed == 0; round++ {
		more = false
		for _, s := range sets {
			if round < h.size.reps || s.measured().Seconds() < h.size.seconds {
				h.addRep(s)
				more = true
			}
		}
	}
	for _, s := range sets {
		if h.failed == 0 {
			h.measurePaperErr(s)
		}
	}
	return sets
}

// endToEnd summarizes the set into the declared end-to-end metrics.
func (s *timedSet) endToEnd(spec *benchSpec) map[string]summary {
	samples := map[string][]float64{
		"setup_s":   s.setups,
		"paper_err": {s.paperErr},
	}
	for i := range s.reps {
		r := &s.reps[i]
		samples["sim_cycles_per_s"] = append(samples["sim_cycles_per_s"], r.rate)
		samples["allocs_per_kcycle"] = append(samples["allocs_per_kcycle"], float64(r.mallocs)/(float64(r.cycles)/1000))
		samples["live_heap_mb"] = append(samples["live_heap_mb"], r.liveHeapMB)
	}
	out := make(map[string]summary, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		out[m.Name] = summarize(m.Unit, samples[m.Name])
	}
	return out
}

// medians is each summary's headline value.
func medians(sums map[string]summary) values {
	v := make(values, len(sums))
	for name, s := range sums {
		if s.N > 0 {
			v[name] = s.Median
		}
	}
	return v
}

// traceWorkload is the traced run: one more rep with the μop sources
// wrapped and spans recorded, set against plain, an untraced rep whose
// run calls took untracedWall. The per-layer counters come from plain
// and must not differ in the traced rep.
func (h *harness) traceWorkload(w *benchWorkload, plain *rep, untracedWall time.Duration) values {
	sources := &sourceTracer{}
	traced, ok := h.runRep(w, sources)
	if !ok {
		return nil
	}
	if traced.digest != plain.digest {
		h.fail(w.name+" traced rep", fmt.Errorf("digest %016x differs from the untraced %016x", traced.digest, plain.digest))
		return nil
	}
	wall := plain.runWall()
	v := values{
		"host.ns_per_tick":     0,
		"host.ns_per_cycle":    float64(wall) / float64(plain.cycles),
		"core.runs_per_s":      plain.counters["core.runs"] / wall.Seconds(),
		"host.gc_count":        float64(plain.gcCount),
		"host.gc_pause_ms":     float64(plain.gcPause) / 1e6,
		"host.calib_ms":        plain.calibMS,
		"span.setup_ms":        float64(traced.setup) / 1e6,
		"span.warmup_ms":       float64(traced.warmupWall) / 1e6,
		"span.measure_ms":      float64(traced.measureWall()) / 1e6,
		"span.collect_ms":      float64(traced.collectWall) / 1e6,
		"trace.overhead_ratio": float64(traced.runWall()) / float64(untracedWall),
	}
	if plain.ticks > 0 {
		v["host.ns_per_tick"] = float64(wall) / float64(plain.ticks)
	}
	v.merge(plain.counters)
	v.merge(sources.counters(traced.runWall()))
	return v
}
