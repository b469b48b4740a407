package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/prefetch"
	"stackedsim/internal/sim"
	"stackedsim/internal/tlb"
)

// A core turned away by a full L1 MSHR file sleeps until an entry frees;
// the re-probes it skips change nothing. These tests run one script on
// two rigs — a full-tick engine, where the core polls every cycle, and
// a scheduled one, where it sleeps — and require what the core and its
// L1 leave behind to come out identical.

// scriptPort is the level below the DL1: it accepts every request and
// answers the oldest outstanding one when the script says so.
type scriptPort struct {
	pending []*mem.Request
	submits []string // "cycle kind line-within-page" per request, in order
}

func (p *scriptPort) Submit(r *mem.Request, now sim.Cycle) bool {
	p.pending = append(p.pending, r)
	p.submits = append(p.submits, fmt.Sprintf("%d %v %#x", now, r.Kind, uint64(r.Line)&0xfff))
	return true
}

func (p *scriptPort) answer(now sim.Cycle, drop bool) {
	r := p.pending[0]
	p.pending = p.pending[1:]
	r.Dropped = drop
	r.Complete(now)
}

// step is one scripted action. Components registered before the core
// (the event queue's completions) act ahead of its slot in a cycle,
// those after it (L2, controllers) behind it; an action behind the slot
// is also what a caller between two engine steps amounts to.
type step struct {
	at    sim.Cycle
	after bool
	do    func(r *rig, now sim.Cycle)
}

func fill(r *rig, now sim.Cycle) { r.port.answer(now, false) }
func drop(r *rig, now sim.Cycle) { r.port.answer(now, true) }

// rig is a core with an 8-entry ROB on a 1-MSHR, 20-cycle DL1.
type rig struct {
	eng  *sim.Engine
	core *Core
	l1   *cache.L1
	dt   *tlb.TLB
	port *scriptPort
}

func newRig(fullTick, prefetch bool, ops []UOp, script []step) *rig {
	cfg := config.Baseline2D()
	cfg.ROBSize = 8
	pt := mem.NewPageTable(1<<32, 4096)
	r := &rig{eng: sim.NewEngine(), dt: tlb.New(64, 4, pt), port: &scriptPort{}}
	r.l1 = cache.NewL1(cache.L1Params{
		Array: cache.NewArray("dl1", 32, 12, 64), Latency: 20, LineBytes: 64,
		MSHRs: 1, Below: r.port, IDs: &mem.IDSource{}, Prefetch: prefetch,
	})
	r.core = New(Params{
		Cfg: cfg, L1: r.l1, DTLB: r.dt,
		Pages: pt, Source: &scriptSource{ops: ops},
	})
	r.eng.SetFullTick(fullTick)
	slot := func(after bool) sim.TickFunc {
		return func(now sim.Cycle) {
			for _, s := range script {
				if s.at == now && s.after == after {
					s.do(r, now)
				}
			}
		}
	}
	r.eng.Register(slot(false))
	r.core.SetHandle(r.eng.RegisterEvery(1, 0, r.core))
	r.eng.Register(slot(true))
	return r
}

// outcome is everything the core and its L1 leave behind.
type outcome struct {
	CPU       Stats
	Prefetch  prefetch.Stats
	Committed uint64
	Submits   []string
}

func (r *rig) run(cycles sim.Cycle) outcome {
	r.eng.Run(cycles)
	return outcome{*r.core.Stats(), r.l1.PrefetchStats(), r.core.Committed(), r.port.submits}
}

// resetStats is System.ResetStats for the rig.
func resetStats(r *rig, now sim.Cycle) {
	r.core.ResetStats()
	r.l1.ResetStats()
}

func TestBlockedCoreSleepsAndSettlesExactly(t *testing.T) {
	// One page, so the only DTLB walk is the first μop's (cycles 2–32).
	const l0, a, b = 0x10000, 0x10040, 0x10100
	ld := func(addr uint64) UOp { return UOp{Mem: true, VAddr: addr, PC: addr} }
	st := func(addr uint64) UOp { return UOp{Mem: true, Store: true, VAddr: addr, PC: addr} }
	after := func(op UOp) UOp { op.DependsOnPrev = true; return op }

	// A store takes the MSHR at 32 and completes at issue, the load of b
	// is turned away from 32 on, and the store's fill — whose waiter is
	// nil, so only the L1's wake reaches the core — lands at 200.
	storeThenLoad := []UOp{st(a), ld(b)}
	// A load fills at 60; the dependent hit on its line at 61 trains the
	// next-line prefetcher, whose request takes the MSHR; b is turned
	// away from 62 on.
	prefetchHoldsMSHR := []UOp{ld(a), after(ld(a + 8)), ld(b)}

	scenarios := []struct {
		name     string
		prefetch bool
		ops      []UOp
		script   []step
		// reissue is the submit the turned-away μop must become.
		reissue string
	}{
		{name: "load fill behind the core's slot", ops: []UOp{ld(a), ld(b)},
			script:  []step{{at: 200, after: true, do: fill}, {at: 390, after: true, do: fill}},
			reissue: "201 read 0x100"},
		{name: "load fill ahead of the core's slot", ops: []UOp{ld(a), ld(b)},
			script:  []step{{at: 200, do: fill}, {at: 390, do: fill}},
			reissue: "200 read 0x100"},
		{name: "store-miss fill, nil waiter", ops: storeThenLoad,
			script:  []step{{at: 200, after: true, do: fill}, {at: 390, after: true, do: fill}},
			reissue: "201 read 0x100"},
		{name: "prefetch fill", prefetch: true, ops: prefetchHoldsMSHR,
			script:  []step{{at: 60, after: true, do: fill}, {at: 200, after: true, do: fill}, {at: 390, after: true, do: fill}},
			reissue: "201 read 0x100"},
		{name: "prefetch drop", prefetch: true, ops: prefetchHoldsMSHR,
			script:  []step{{at: 60, after: true, do: fill}, {at: 200, after: true, do: drop}, {at: 390, after: true, do: fill}},
			reissue: "201 read 0x100"},
		// The store is turned away behind l0's miss (32–50); from 52 the
		// load of b is, with the 20-cycle hit on l0 at the ROB head: the
		// core wakes for it at 71, still blocked, and sleeps again.
		{name: "timed ROB head fires while blocked", ops: []UOp{ld(l0), st(a), ld(l0 + 8), ld(b)},
			script:  []step{{at: 50, after: true, do: fill}, {at: 200, after: true, do: fill}, {at: 390, after: true, do: fill}},
			reissue: "201 read 0x100"},
		{name: "warmup boundary splits the span", ops: storeThenLoad,
			script: []step{{at: 100, after: true, do: resetStats},
				{at: 200, after: true, do: fill}, {at: 390, after: true, do: fill}},
			reissue: "201 read 0x100"},
		{name: "halt while blocked", ops: storeThenLoad,
			script: []step{{at: 100, after: true, do: func(r *rig, _ sim.Cycle) { r.core.Halt() }},
				{at: 200, after: true, do: fill}, {at: 390, after: true, do: fill}},
			reissue: "201 read 0x100"},
	}
	const cycles = 400
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			polled := newRig(true, sc.prefetch, sc.ops, sc.script)
			slept := newRig(false, sc.prefetch, sc.ops, sc.script)
			want, got := polled.run(cycles), slept.run(cycles)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("sleeping changed what polling leaves behind:\npolled: %+v\nslept:  %+v", want, got)
			}
			if last := got.Submits[len(got.Submits)-1]; last != sc.reissue {
				t.Errorf("turned-away μop went below as %q, want %q (all: %v)", last, sc.reissue, got.Submits)
			}
			const coreIdx = 1 // between the two script slots
			if ticks := slept.eng.TicksByComponent()[coreIdx]; ticks > cycles/4 {
				t.Errorf("core ticked %d of %d cycles: it polled instead of sleeping", ticks, cycles)
			}
			if ticks := polled.eng.TicksByComponent()[coreIdx]; ticks != cycles {
				t.Errorf("full-tick oracle ticked the core %d of %d cycles", ticks, cycles)
			}
		})
	}
}
