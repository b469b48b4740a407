package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
)

// refEngine is the engine as it was before the live set: Step and
// nextInteresting scan every entry. It shares Engine's entries, clock,
// event queue, counters and settle bookkeeping, and its handles write
// only the sleep cycle, so it differs from Engine in the walk alone.
type refEngine struct{ Engine }

type refHandle struct {
	e   *refEngine
	idx int
}

func (h refHandle) SleepUntil(c Cycle) { h.e.entries[h.idx].sleep = c }
func (h refHandle) Wake()              { h.e.entries[h.idx].sleep = 0 }

func (e *refEngine) register(every, phase int, t Ticker) sleeper {
	e.RegisterEvery(every, phase, t)
	return refHandle{e, len(e.entries) - 1}
}

func (e *refEngine) Step() {
	e.now++
	e.events.FireDue(e.now)
	for i := range e.entries {
		en := &e.entries[i]
		if !e.fullTick {
			if en.sleep > e.now {
				continue
			}
			if en.every > 1 && e.now%en.every != en.phase {
				continue
			}
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
	}
}

func (e *refEngine) nextInteresting() Cycle {
	next := FarFuture
	for i := range e.entries {
		en := &e.entries[i]
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

func (e *refEngine) advance(n Cycle) Cycle {
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
		e.now += n
		e.cyclesSkipped += uint64(n)
		return n
	}
	e.now += skip
	e.cyclesSkipped += uint64(skip)
	e.Step()
	return skip + 1
}

func (e *refEngine) Run(n Cycle) {
	for done := Cycle(0); done < n; {
		done += e.advance(n - done)
	}
}

func (e *refEngine) RunCtx(ctx context.Context, n Cycle) (stepped Cycle, err error) {
	for stepped < n {
		if err := ctx.Err(); err != nil {
			return stepped, err
		}
		chunk := min(n-stepped, ctxCheckInterval)
		for done := Cycle(0); done < chunk; {
			done += e.advance(chunk - done)
		}
		stepped += chunk
	}
	return stepped, nil
}

func (e *refEngine) RunUntil(done func() bool, max Cycle) (stepped Cycle, ok bool) {
	for stepped < max {
		if done() {
			return stepped, true
		}
		stepped += e.advance(max - stepped)
	}
	return max, done()
}

// sleeper is what a component holds of its registration.
type sleeper interface {
	SleepUntil(Cycle)
	Wake()
}

// engineUnderTest is what the population drives, on either engine.
type engineUnderTest interface {
	register(every, phase int, t Ticker) sleeper
	Schedule(c Cycle, f func())
	Now() Cycle
	SetFullTick(on bool)
	Run(n Cycle)
	RunCtx(ctx context.Context, n Cycle) (Cycle, error)
	RunUntil(done func() bool, max Cycle) (Cycle, bool)
	Settle()
	TicksByComponent() []uint64
	TicksDelivered() uint64
	CyclesSkipped() uint64
}

type liveEngine struct{ *Engine }

func (e liveEngine) register(every, phase int, t Ticker) sleeper {
	return e.RegisterEvery(every, phase, t)
}

// population is a seeded crowd of tickers that sleep and wake each other
// at random: on each tick a member sleeps until the next cycle, until a
// cycle 1–200 ahead or until woken, or stays armed, and while the crowd
// is busy it usually also wakes or puts to sleep a random earlier or later
// member. Everything it sees — each tick, each Settle, each run's return
// — goes into one log.
type population struct {
	e     engineUnderTest
	rng   *rand.Rand
	h     []sleeper
	busy  bool
	ticks int
	log   []string
}

type member struct {
	p *population
	i int
}

func (m member) Tick(now Cycle) {
	p := m.p
	p.ticks++
	p.log = append(p.log, fmt.Sprintf("%d tick %d", now, m.i))
	switch r := p.rng.IntN(20); {
	case r < 2: // stays armed
	case r < 6:
		p.h[m.i].SleepUntil(now + 1)
	case r < 13:
		p.h[m.i].SleepUntil(now + 1 + Cycle(p.rng.IntN(200)))
	default:
		p.h[m.i].SleepUntil(FarFuture)
	}
	if !p.busy || p.rng.IntN(10) >= 8 {
		return
	}
	other := p.h[p.rng.IntN(len(p.h))]
	switch r := p.rng.IntN(20); {
	case r < 14:
		other.Wake()
	case r < 17:
		other.SleepUntil(now + 1)
	case r < 19:
		other.SleepUntil(now + 1 + Cycle(p.rng.IntN(200)))
	default:
		other.SleepUntil(FarFuture)
	}
}

type settlingMember struct{ member }

func (m settlingMember) Settle(last, k Cycle) {
	m.p.log = append(m.p.log, fmt.Sprintf("settle %d: %d+%d", m.i, last, k))
}

func newPopulation(e engineUnderTest, seed uint64, n int) *population {
	p := &population{e: e, rng: rand.New(rand.NewPCG(seed, 0)), busy: true}
	for i := 0; i < n; i++ {
		every := 1
		switch p.rng.IntN(10) {
		case 0:
			every = 3
		case 1:
			every = 7
		}
		var t Ticker = member{p, i}
		if p.rng.IntN(4) == 0 {
			t = settlingMember{member{p, i}}
		}
		p.h = append(p.h, e.register(every, p.rng.IntN(every), t))
	}
	return p
}

// pulse wakes three random members and schedules itself again 1–300
// cycles on, so that a quiet crowd still has a next interesting cycle.
func (p *population) pulse() {
	for k := 0; k < 3; k++ {
		p.h[p.rng.IntN(len(p.h))].Wake()
	}
	p.log = append(p.log, fmt.Sprintf("%d pulse", p.e.Now()))
	p.e.Schedule(p.e.Now()+1+Cycle(p.rng.IntN(300)), p.pulse)
}

// drive runs the population through every way the engine is advanced:
// busy and quiet spells, Run, RunCtx (to completion and cancelled by an
// event), RunUntil (satisfied and timing out, settling from its
// predicate), Settle between runs, and two full-tick spells.
func (p *population) drive() {
	e := p.e
	note := func(format string, args ...any) { p.log = append(p.log, fmt.Sprintf(format, args...)) }
	p.pulse()
	e.Run(3_000)
	e.Settle()
	p.busy = false
	n, err := e.RunCtx(context.Background(), 6_000)
	note("RunCtx %d %v", n, err)
	e.SetFullTick(true)
	e.Run(500)
	e.SetFullTick(false)
	p.busy = true
	calls := 0
	until := p.ticks + 4_000
	n, ok := e.RunUntil(func() bool {
		if calls++; calls%37 == 0 {
			e.Settle()
		}
		return p.ticks >= until
	}, 50_000)
	note("RunUntil %d %v", n, ok)
	p.busy = false
	n, ok = e.RunUntil(func() bool { return false }, 4_000)
	note("RunUntil %d %v", n, ok)
	ctx, cancel := context.WithCancel(context.Background())
	e.Schedule(e.Now()+2*ctxCheckInterval+17, cancel)
	n, err = e.RunCtx(ctx, 100*ctxCheckInterval)
	note("RunCtx %d %v", n, err)
	e.SetFullTick(true)
	e.Run(300)
	e.SetFullTick(false)
	p.busy = true
	e.Run(4_000)
	e.Settle()
}

// TestLiveSetMatchesFullScan drives one seeded population of ~300
// tickers on the engine and on the full-scan engine it replaced, and
// requires the same ticks in the same order on the same cycles, the same
// Settle calls, the same returns from every run, and the same counters.
func TestLiveSetMatchesFullScan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		ref := &refEngine{}
		want := newPopulation(ref, seed, 300)
		want.drive()
		live := NewEngine()
		got := newPopulation(liveEngine{live}, seed, 300)
		got.drive()

		for i := range min(len(want.log), len(got.log)) {
			if want.log[i] != got.log[i] {
				t.Fatalf("seed %d: entry %d of the log: full scan %q, live set %q", seed, i, want.log[i], got.log[i])
			}
		}
		if len(want.log) != len(got.log) {
			t.Fatalf("seed %d: logs of %d and %d entries", seed, len(want.log), len(got.log))
		}
		if !reflect.DeepEqual(ref.TicksByComponent(), live.TicksByComponent()) {
			t.Errorf("seed %d: TicksByComponent differ", seed)
		}
		if ref.TicksDelivered() != live.TicksDelivered() || ref.CyclesSkipped() != live.CyclesSkipped() || ref.Now() != live.Now() {
			t.Errorf("seed %d: full scan %d ticks, %d skipped by %d; live set %d, %d by %d", seed,
				ref.TicksDelivered(), ref.CyclesSkipped(), ref.Now(), live.TicksDelivered(), live.CyclesSkipped(), live.Now())
		}
		// The drive is meant to cover both regimes: spans the engine jumps
		// and cycles on which many members tick.
		if ref.CyclesSkipped() < 1_000 || ref.TicksDelivered() < 5*uint64(ref.Now()) {
			t.Errorf("seed %d: %d cycles skipped and %d ticks over %d cycles: the drive exercised too little",
				seed, ref.CyclesSkipped(), ref.TicksDelivered(), ref.Now())
		}
	}
}
