// Package sim provides the cycle-level simulation engine that drives every
// component in stackedsim.
//
// The engine uses a single global clock expressed in CPU cycles. Slower
// clock domains (the front-side bus, the DRAM command clock) are modeled
// with integer dividers: a component in a slower domain only acts on cycles
// where its domain has a rising edge. This mirrors the paper's methodology,
// where all DRAM timing parameters are rounded up to integral multiples of
// the CPU cycle time.
//
// All simulation is deterministic and single-threaded: components are
// ticked in registration order, and any cross-component communication
// happens through explicit queues, so a given configuration and workload
// seed always produces the same result.
//
// Two scheduling fast-paths keep the hot loop from visiting components
// that provably have nothing to do, without changing results:
//
//   - RegisterEvery(every, phase, t) ticks a component only on its clock
//     domain's edges (cycles where now%every == phase), instead of every
//     CPU cycle with an internal edge check.
//   - The TickHandle returned by RegisterEvery lets a component report
//     quiescence (SleepUntil) and be skipped until a chosen cycle or
//     until re-armed (Wake) by whatever hands it new work. A component
//     asleep until woken is not even visited: the engine walks a set of
//     the others.
//
// Engine.SetFullTick(true) disables both fast-paths, restoring the
// tick-everything-every-cycle behaviour; parity tests pin that the two
// modes produce identical simulations.
package sim

import (
	"context"
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle int64

// FarFuture is a sleep target meaning "until woken": far enough out
// that no run reaches it, small enough that arithmetic on it cannot
// overflow. Components with no self-scheduled next-work cycle sleep
// until FarFuture and rely on Wake.
const FarFuture = Cycle(1) << 62

// Ticker is a component driven once per CPU cycle by the Engine.
//
// Tick is called with the current cycle. Components must not assume any
// particular ordering relative to other components beyond the order in
// which they were registered.
type Ticker interface {
	Tick(now Cycle)
}

// TickFunc adapts a plain function to the Ticker interface.
type TickFunc func(now Cycle)

// Tick calls f(now).
func (f TickFunc) Tick(now Cycle) { f(now) }

// Settler is implemented by a Ticker that sleeps through cycles on which
// its Tick would only have counted, and counts them in closed form
// instead: Settle(last, k) says that the k cycles after last passed
// without a tick, and must leave every statistic as k ticks there would
// have. The engine keeps the time: it settles a gap just before the Tick
// that ends it, and Engine.Settle closes the open ones before statistics
// are read.
type Settler interface {
	Settle(last, k Cycle)
}

// tickEntry is one registered component plus its scheduling state: the
// clock-domain period/phase it ticks on and the cycle (exclusive) it is
// sleeping until, when its component has reported quiescence.
type tickEntry struct {
	t     Ticker
	every Cycle   // tick period in CPU cycles (>= 1)
	phase Cycle   // tick when now%every == phase
	sleep Cycle   // skip while now < sleep (0 = armed)
	ticks uint64  // Tick calls delivered to this component
	s     Settler // t, when it settles: nil otherwise
	last  Cycle   // the last cycle s ticked on or was settled through
}

// Engine drives registered tickers, one call per component per cycle.
//
// The zero value is ready to use.
type Engine struct {
	now     Cycle
	entries []tickEntry
	events  EventQueue

	// live has bit i set for every entry i that is not asleep until
	// woken: Step and nextInteresting walk its set bits instead of every
	// entry. RegisterEvery, Wake and SleepUntil(c < FarFuture) set a bit;
	// only the walks clear one, on finding its entry asleep until
	// FarFuture, so a clear bit always means an entry that cannot tick.
	live []uint64
	// rearmed records that a clear bit was set since Step last looked:
	// a tick that woke a later entry of the word being walked makes the
	// walk re-read the word, and only then.
	rearmed bool

	// fullTick forces the seed behaviour: every component ticks every
	// cycle, ignoring divider registration and sleep. Components keep
	// their own edge checks, so results are identical either way; the
	// knob exists so parity tests can pin that equivalence.
	fullTick bool

	// Engine-efficiency counters: how many Tick calls were actually
	// delivered, and how many cycles the run loop jumped over without
	// entering Step because nothing could happen on them.
	ticksDelivered uint64
	cyclesSkipped  uint64
}

// NewEngine returns an empty engine at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Register appends t to the tick order, ticking every CPU cycle.
// Components registered earlier tick earlier within each cycle.
func (e *Engine) Register(t Ticker) {
	e.RegisterEvery(1, 0, t)
}

// RegisterEvery appends t to the tick order, ticking only on CPU cycles
// where now%every == phase — the rising edges of a clock domain whose
// divider is every (see Divider). Registration order still decides
// within-cycle ordering against all other components. The returned
// handle lets the component additionally sleep through provably idle
// spans; callers that never go idle may discard it.
func (e *Engine) RegisterEvery(every, phase int, t Ticker) *TickHandle {
	if t == nil {
		panic("sim: RegisterEvery called with nil Ticker")
	}
	if every < 1 {
		panic(fmt.Sprintf("sim: RegisterEvery period %d must be >= 1", every))
	}
	if phase < 0 || phase >= every {
		panic(fmt.Sprintf("sim: RegisterEvery phase %d outside [0,%d)", phase, every))
	}
	en := tickEntry{t: t, every: Cycle(every), phase: Cycle(phase), last: e.now}
	en.s, _ = t.(Settler)
	e.entries = append(e.entries, en)
	i := len(e.entries) - 1
	if i%64 == 0 {
		e.live = append(e.live, 0)
	}
	e.arm(i)
	return &TickHandle{e: e, idx: i}
}

// arm puts entry i in the live set.
func (e *Engine) arm(i int) {
	if w, m := &e.live[i/64], uint64(1)<<(i%64); *w&m == 0 {
		*w |= m
		e.rearmed = true
	}
}

// Settle brings every Settler up to and including Now(). Whatever reads
// or resets statistics mid-run calls it first, from between two steps or
// from a component registered after every Settler: one settled through
// this cycle ahead of its own slot in it would count the cycle twice.
// Under SetFullTick(true) nothing sleeps, so there is never a gap.
func (e *Engine) Settle() {
	for i := range e.entries {
		if en := &e.entries[i]; en.s != nil && e.now > en.last {
			en.s.Settle(en.last, e.now-en.last)
			en.last = e.now
		}
	}
}

// SetFullTick toggles the compatibility mode in which every registered
// component ticks every cycle regardless of divider registration or
// sleep state. Intended for parity tests and debugging; simulation
// results are identical either way.
func (e *Engine) SetFullTick(on bool) { e.fullTick = on }

// TickHandle controls the idle fast-path of one registered component.
// A nil handle is a no-op on every method, so components can hold one
// optionally.
type TickHandle struct {
	e   *Engine
	idx int
}

// SleepUntil suspends the component's ticks on cycles before c. A
// component may only sleep through cycles it can prove it has no work
// on; anything that hands it new work must Wake it. Values at or below
// the next cycle are harmless no-ops.
func (h *TickHandle) SleepUntil(c Cycle) {
	if h == nil {
		return
	}
	h.e.entries[h.idx].sleep = c
	if c < FarFuture {
		h.e.arm(h.idx)
	}
}

// Wake re-arms the component immediately: it resumes ticking on the
// cycle currently being (or next to be) stepped if it is registered
// after the component that woke it, on the next cycle if before.
func (h *TickHandle) Wake() {
	if h == nil {
		return
	}
	h.e.entries[h.idx].sleep = 0
	h.e.arm(h.idx)
}

// FullTick reports whether the engine is in full-tick mode, ticking the
// component on every cycle whatever it sleeps through. A component that
// counts in closed form what it would have done on skipped cycles reads
// this to do everything for real instead, so that full tick stays an
// oracle independent of the closed forms it checks. False for a nil handle.
func (h *TickHandle) FullTick() bool { return h != nil && h.e.fullTick }

// Now reports the current cycle. During a Tick callback this is the cycle
// being simulated.
func (e *Engine) Now() Cycle { return e.now }

// Schedule runs f at cycle c. If c is not after the current cycle, f runs
// at the start of the next Step.
func (e *Engine) Schedule(c Cycle, f func()) { e.events.At(c, f) }

// After runs f d cycles after the current cycle.
func (e *Engine) After(d Cycle, f func()) { e.events.At(e.now+d, f) }

// Step advances simulated time by one cycle: due events fire first, then
// every registered ticker whose domain has an edge this cycle (and that
// is not sleeping) runs once, in registration order. Only the live set
// is walked, one word at a time; a tick that arms an entry re-reads the
// rest of the word, so one woken by an earlier-registered component
// ticks on this cycle and one woken by a later-registered one on the
// next, as under full tick.
func (e *Engine) Step() {
	e.now++
	e.events.FireDue(e.now)
	// A tick — settling the gap a sleep left, then Tick — is spelled out
	// in both loops: a call would cost a step over 265 armed entries 15 %.
	if e.fullTick {
		for i := range e.entries {
			en := &e.entries[i]
			if en.s != nil {
				if k := e.now - en.last - 1; k > 0 {
					en.s.Settle(en.last, k)
				}
				en.last = e.now
			}
			en.t.Tick(e.now)
			en.ticks++
			e.ticksDelivered++
		}
		return
	}
	e.rearmed = false
	for w := range e.live {
		for word := e.live[w]; word != 0; {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			en := &e.entries[w*64+b]
			if en.sleep > e.now {
				if en.sleep >= FarFuture {
					e.live[w] &^= 1 << b
				}
				continue
			}
			if en.every > 1 && e.now%en.every != en.phase {
				continue
			}
			if en.s != nil {
				if k := e.now - en.last - 1; k > 0 {
					en.s.Settle(en.last, k)
				}
				en.last = e.now
			}
			en.t.Tick(e.now)
			en.ticks++
			e.ticksDelivered++
			if e.rearmed {
				e.rearmed = false
				word = e.live[w] &^ (2<<b - 1)
			}
		}
	}
}

// TicksByComponent reports per-component delivered Tick counts, in
// registration order. Useful for finding which component a mostly-idle
// run still spends its ticks on.
func (e *Engine) TicksByComponent() []uint64 {
	out := make([]uint64, len(e.entries))
	for i := range e.entries {
		out[i] = e.entries[i].ticks
	}
	return out
}

// TicksDelivered reports how many component Tick calls the engine has
// made since construction. Compare against Now() times the number of
// registered components to see how much work the scheduling fast-paths
// avoided.
func (e *Engine) TicksDelivered() uint64 { return e.ticksDelivered }

// CyclesSkipped reports how many cycles the run loop jumped over
// entirely (no events due, every component asleep or off its clock
// edge). Skipped cycles still advance Now and count toward run budgets.
func (e *Engine) CyclesSkipped() uint64 { return e.cyclesSkipped }

// nextInteresting reports the earliest cycle after now on which
// anything can happen: a non-sleeping entry's next clock-domain edge, a
// sleeping entry's wake cycle rounded up to its next edge, or the
// earliest pending event. When every component sleeps unboundedly and
// no events are pending, it reports a far-future cycle and the caller
// clamps the jump to its budget. Entries outside the live set sleep
// until FarFuture and cannot lower it.
func (e *Engine) nextInteresting() Cycle {
	next := FarFuture
	for w, word := range e.live {
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			en := &e.entries[w*64+b]
			if en.sleep >= FarFuture {
				e.live[w] &^= 1 << b
				continue
			}
			c := e.now + 1
			if en.sleep > c {
				c = en.sleep
			}
			if en.every > 1 {
				if r := c % en.every; r != en.phase {
					d := en.phase - r
					if d < 0 {
						d += en.every
					}
					c += d
				}
			}
			if c < next {
				next = c
				if next <= e.now+1 {
					return next
				}
			}
		}
	}
	if c, ok := e.events.NextAt(); ok {
		if c <= e.now {
			c = e.now + 1
		}
		if c < next {
			next = c
		}
	}
	return next
}

// advance moves simulated time forward by up to n cycles (n >= 1) and
// returns the cycles consumed. Provably idle spans are jumped over
// without entering Step; skipped cycles count as consumed, so run
// budgets, slice boundaries, and sampling intervals see them exactly
// as if they had been stepped one by one.
func (e *Engine) advance(n Cycle) Cycle {
	if e.fullTick {
		e.Step()
		return 1
	}
	skip := e.nextInteresting() - (e.now + 1)
	if skip <= 0 {
		e.Step()
		return 1
	}
	if skip >= n {
		// Nothing can happen in the whole remaining budget: jump to
		// the end of the run without stepping at all.
		e.now += n
		e.cyclesSkipped += uint64(n)
		return n
	}
	e.now += skip
	e.cyclesSkipped += uint64(skip)
	e.Step()
	return skip + 1
}

// Run advances the simulation by n cycles.
func (e *Engine) Run(n Cycle) {
	for done := Cycle(0); done < n; {
		done += e.advance(n - done)
	}
}

// ctxCheckInterval is how many cycles RunCtx steps between context
// checks: frequent enough that cancellation lands within microseconds
// of wall time, rare enough that the check never shows in profiles.
const ctxCheckInterval = 4096

// RunCtx advances the simulation by up to n cycles, polling ctx every
// ctxCheckInterval cycles. It returns the cycles actually stepped and
// ctx.Err() when cancellation or a deadline cut the run short (nil
// when all n cycles ran). The engine remains valid and resumable
// after a cancelled run — no state is lost mid-cycle.
func (e *Engine) RunCtx(ctx context.Context, n Cycle) (stepped Cycle, err error) {
	for stepped < n {
		if err := ctx.Err(); err != nil {
			return stepped, err
		}
		chunk := n - stepped
		if chunk > ctxCheckInterval {
			chunk = ctxCheckInterval
		}
		for done := Cycle(0); done < chunk; {
			done += e.advance(chunk - done)
		}
		stepped += chunk
	}
	return stepped, nil
}

// RunUntil steps the simulation until done() reports true or max cycles
// have elapsed. It returns the number of cycles stepped and whether the
// predicate was satisfied; done() is checked before each advance and
// once more after the final one, so a predicate first satisfied exactly
// on the max-th cycle reports done rather than a timeout. Idle spans
// are jumped like Run's; the predicate must therefore depend only on
// component or event state (which cannot change inside a skipped span),
// not on Now() directly.
func (e *Engine) RunUntil(done func() bool, max Cycle) (stepped Cycle, ok bool) {
	for stepped < max {
		if done() {
			return stepped, true
		}
		stepped += e.advance(max - stepped)
	}
	return max, done()
}
