package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSkipCounters pins the engine-efficiency accounting: with every
// component asleep the run loop jumps the idle span in one hop, and the
// skipped cycles are visible through CyclesSkipped while delivered
// ticks show up in TicksDelivered and TicksByComponent.
func TestSkipCounters(t *testing.T) {
	e := NewEngine()
	var aTicks, bTicks int
	ha := e.RegisterEvery(1, 0, TickFunc(func(Cycle) { aTicks++ }))
	hb := e.RegisterEvery(1, 0, TickFunc(func(Cycle) { bTicks++ }))
	ha.SleepUntil(91)
	hb.SleepUntil(FarFuture)
	e.Run(100) // cycles 1..100: a ticks on 91..100, b never
	if aTicks != 10 || bTicks != 0 {
		t.Fatalf("ticked %d/%d, want 10/0", aTicks, bTicks)
	}
	if got := e.TicksDelivered(); got != 10 {
		t.Fatalf("TicksDelivered = %d, want 10", got)
	}
	if got := e.CyclesSkipped(); got != 90 {
		t.Fatalf("CyclesSkipped = %d, want 90", got)
	}
	if by := e.TicksByComponent(); len(by) != 2 || by[0] != 10 || by[1] != 0 {
		t.Fatalf("TicksByComponent = %v, want [10 0]", by)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100 (skipped cycles still advance time)", e.Now())
	}
}

// TestSkipClampsToRunBudget pins that a jump over an idle span never
// overshoots the run budget: a component sleeping far beyond the run's
// end leaves the engine at exactly the requested cycle.
func TestSkipClampsToRunBudget(t *testing.T) {
	e := NewEngine()
	h := e.RegisterEvery(1, 0, TickFunc(func(Cycle) { t.Fatal("ticked while asleep") }))
	h.SleepUntil(1_000_000)
	e.Run(10)
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
	e.Run(10)
	if e.Now() != 20 {
		t.Fatalf("Now = %d after second run, want 20", e.Now())
	}
}

// TestWakeBeforeSleep pins the wake-ordering contract the component
// sleep disciplines rely on: when an earlier-registered producer wakes
// a later-registered consumer during cycle T, the consumer ticks on T
// itself — not T+1 — exactly as it would have under full tick. It also
// pins that a Wake landing before the target ever sleeps is harmless.
func TestWakeBeforeSleep(t *testing.T) {
	e := NewEngine()
	var consumerTicks []Cycle
	var hc *TickHandle
	e.Register(TickFunc(func(now Cycle) {
		if now == 5 {
			hc.Wake()
		}
	}))
	hc = e.RegisterEvery(1, 0, TickFunc(func(now Cycle) {
		consumerTicks = append(consumerTicks, now)
		hc.SleepUntil(FarFuture)
	}))
	hc.Wake() // wake before the consumer has ever slept: no-op arming
	e.Run(10)
	// Consumer ticks on cycle 1 (initially armed), sleeps, then is woken
	// by the producer during cycle 5 and must tick that same cycle.
	want := []Cycle{1, 5}
	if len(consumerTicks) != len(want) {
		t.Fatalf("consumer ticked %v, want %v", consumerTicks, want)
	}
	for i := range want {
		if consumerTicks[i] != want[i] {
			t.Fatalf("consumer ticked %v, want %v", consumerTicks, want)
		}
	}
}

// TestWakeDuringSkippedSpanViaEvent pins that a scheduled event firing
// inside an otherwise idle span both runs on its exact cycle and can
// wake a sleeping component on that cycle.
func TestWakeDuringSkippedSpanViaEvent(t *testing.T) {
	e := NewEngine()
	var ticks []Cycle
	var h *TickHandle
	h = e.RegisterEvery(1, 0, TickFunc(func(now Cycle) {
		ticks = append(ticks, now)
		h.SleepUntil(FarFuture)
	}))
	var firedAt Cycle
	e.Schedule(50, func() {
		firedAt = e.Now()
		h.Wake()
	})
	e.Run(100)
	if firedAt != 50 {
		t.Fatalf("event fired at %d, want 50", firedAt)
	}
	want := []Cycle{1, 50}
	if len(ticks) != 2 || ticks[0] != want[0] || ticks[1] != want[1] {
		t.Fatalf("ticked %v, want %v", ticks, want)
	}
	// 1 tick-cycle at 1, one at 50; cycles 2..49 and 51..100 skipped.
	if got := e.CyclesSkipped(); got != 98 {
		t.Fatalf("CyclesSkipped = %d, want 98", got)
	}
}

// TestAtCallZeroAllocOrdering pins that AtCall events interleave with
// At closures in strict (cycle, insertion) order and deliver their
// argument and fire cycle unchanged.
func TestAtCallZeroAllocOrdering(t *testing.T) {
	var q EventQueue
	var order []string
	type payload struct{ name string }
	record := func(arg any, at Cycle) {
		order = append(order, arg.(*payload).name)
		if at != 3 {
			t.Fatalf("AtCall fired with at=%d, want 3", at)
		}
	}
	q.AtCall(3, record, &payload{name: "a"})
	q.At(3, func() { order = append(order, "closure") })
	q.AtCall(3, record, &payload{name: "b"})
	q.FireDue(3)
	want := []string{"a", "closure", "b"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestDividerSleepRoundsToEdge pins that a sleeping divider-domain
// component resumes on its own clock edge, not on its raw wake cycle.
func TestDividerSleepRoundsToEdge(t *testing.T) {
	e := NewEngine()
	var ticks []Cycle
	h := e.RegisterEvery(4, 0, TickFunc(func(now Cycle) { ticks = append(ticks, now) }))
	h.SleepUntil(5) // next edge at or after 5 is 8
	e.Run(12)
	want := []Cycle{8, 12}
	if len(ticks) != len(want) {
		t.Fatalf("ticked %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticked %v, want %v", ticks, want)
		}
	}
}

// napper is a recording Settler: after every tick it sleeps through the
// next nap cycles, and it writes down each Tick and each Settle it is
// handed. With a nil log it only counts, for the allocation check.
type napper struct {
	h    *TickHandle
	nap  Cycle
	log  *[]string
	seen int
}

func (n *napper) Tick(now Cycle) {
	n.seen++
	if n.log != nil {
		*n.log = append(*n.log, fmt.Sprintf("tick %d", now))
	}
	n.h.SleepUntil(now + n.nap + 1)
}

func (n *napper) Settle(last, k Cycle) {
	n.seen += int(k)
	if n.log != nil {
		*n.log = append(*n.log, fmt.Sprintf("settle %d+%d", last, k))
	}
}

// TestSettlerContract pins what the engine promises a Settler: the k
// cycles a sleep skipped arrive as one Settle(last, k) just before the
// Tick that ends it; Engine.Settle counts up to and including the
// current cycle, from between two steps or from a ticker behind the
// settler's slot, and asks nothing twice; a settler's time starts on the
// cycle it registers; a full-tick engine, which skips nothing, settles
// nothing; and a ticker without the method is not in the books at all.
func TestSettlerContract(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fullTick bool
		drive    func(e *Engine, n *napper)
		want     []string
	}{
		{
			name: "one Settle before the tick that ends a sleep, and Settle between steps",
			drive: func(e *Engine, n *napper) {
				n.h = e.RegisterEvery(1, 0, n)
				e.Run(7) // ticks on 1 and 6; cycles 2..5 slept through
				e.Settle()
				e.Settle() // cycle 7 is counted once
				e.Run(4)   // ticks on 11; 8..10 are left to settle
			},
			want: []string{"tick 1", "settle 1+4", "tick 6", "settle 6+1", "settle 7+3", "tick 11"},
		},
		{
			name: "Settle from a ticker behind the settler's slot counts the current cycle",
			drive: func(e *Engine, n *napper) {
				n.h = e.RegisterEvery(1, 0, n)
				e.Register(TickFunc(func(now Cycle) {
					if now == 3 || now == 6 {
						e.Settle()
						e.Settle()
					}
				}))
				e.Run(6) // on 6 the settler has ticked: nothing is left to count
			},
			want: []string{"tick 1", "settle 1+2", "settle 3+2", "tick 6"},
		},
		{
			name: "a settler registered mid-run starts from that cycle",
			drive: func(e *Engine, n *napper) {
				e.Run(10)
				n.h = e.RegisterEvery(1, 0, n)
				n.h.SleepUntil(13)
				e.Run(3)
			},
			want: []string{"settle 10+2", "tick 13"},
		},
		{
			name:     "a full-tick engine never settles",
			fullTick: true,
			drive: func(e *Engine, n *napper) {
				n.h = e.RegisterEvery(1, 0, n)
				e.Run(3)
				e.Settle()
			},
			want: []string{"tick 1", "tick 2", "tick 3"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log []string
			e := NewEngine()
			e.SetFullTick(tc.fullTick)
			tc.drive(e, &napper{nap: 4, log: &log})
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("settler saw %q, want %q", log, tc.want)
			}
		})
	}

	// The contract is found once, at registration, and costs a ticker
	// that does not implement it nothing: its entry holds no Settler.
	// Keeping the time allocates nothing for one that does.
	e := NewEngine()
	e.Register(TickFunc(func(Cycle) {}))
	n := &napper{nap: 2}
	n.h = e.RegisterEvery(1, 0, n)
	if e.entries[0].s != nil || e.entries[1].s != n {
		t.Fatalf("entries hold settlers %v and %v, want none and the napper", e.entries[0].s, e.entries[1].s)
	}
	if allocs := testing.AllocsPerRun(100, func() { e.Step(); e.Settle() }); allocs != 0 {
		t.Errorf("Step + Settle allocate %.1f times a cycle, want 0", allocs)
	}
	if n.seen != int(e.Now()) {
		t.Errorf("ticks and settled cycles add up to %d of %d cycles", n.seen, e.Now())
	}
}
