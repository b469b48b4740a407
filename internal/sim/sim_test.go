package sim

import (
	"context"
	"testing"
)

func TestEngineTickOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Register(TickFunc(func(Cycle) { order = append(order, 1) }))
	e.Register(TickFunc(func(Cycle) { order = append(order, 2) }))
	e.Step()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("tick order = %v, want [1 2]", order)
	}
}

func TestEngineNowAdvances(t *testing.T) {
	e := NewEngine()
	var seen []Cycle
	e.Register(TickFunc(func(now Cycle) { seen = append(seen, now) }))
	e.Run(3)
	if e.Now() != 3 {
		t.Fatalf("Now() = %d, want 3", e.Now())
	}
	want := []Cycle{1, 2, 3}
	for i, c := range want {
		if seen[i] != c {
			t.Fatalf("seen[%d] = %d, want %d", i, seen[i], c)
		}
	}
}

func TestEngineRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register(nil) did not panic")
		}
	}()
	NewEngine().Register(nil)
}

func TestEngineScheduleFiresBeforeTicks(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register(TickFunc(func(Cycle) { order = append(order, "tick") }))
	e.Schedule(1, func() { order = append(order, "event") })
	e.Step()
	if order[0] != "event" || order[1] != "tick" {
		t.Fatalf("order = %v, want [event tick]", order)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	fired := Cycle(-1)
	e.Run(5)
	e.After(3, func() { fired = e.Now() })
	e.Run(5)
	if fired != 8 {
		t.Fatalf("After(3) fired at %d, want 8", fired)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	n, ok := e.RunUntil(func() bool { return count >= 4 }, 100)
	if n != 4 || !ok {
		t.Fatalf("RunUntil returned %d,%v, want 4,true", n, ok)
	}
	n, ok = e.RunUntil(func() bool { return false }, 10)
	if n != 10 || ok {
		t.Fatalf("RunUntil(never) returned %d,%v, want 10,false (timeout)", n, ok)
	}
}

func TestEngineRunUntilDoneOnFinalStep(t *testing.T) {
	// A predicate first satisfied by the max-th Step must be reported as
	// done, not as a timeout: the engine checks done() once more after
	// the final step.
	e := NewEngine()
	count := 0
	e.Register(TickFunc(func(Cycle) { count++ }))
	n, ok := e.RunUntil(func() bool { return count >= 5 }, 5)
	if n != 5 || !ok {
		t.Fatalf("RunUntil(done on max-th cycle) = %d,%v, want 5,true", n, ok)
	}
}

func TestRegisterEveryTicksOnDomainEdges(t *testing.T) {
	e := NewEngine()
	var every1, every4, phased []Cycle
	e.Register(TickFunc(func(now Cycle) { every1 = append(every1, now) }))
	e.RegisterEvery(4, 0, TickFunc(func(now Cycle) { every4 = append(every4, now) }))
	e.RegisterEvery(4, 3, TickFunc(func(now Cycle) { phased = append(phased, now) }))
	e.Run(9)
	if len(every1) != 9 {
		t.Fatalf("every-cycle ticker ran %d times, want 9", len(every1))
	}
	if want := []Cycle{4, 8}; len(every4) != 2 || every4[0] != want[0] || every4[1] != want[1] {
		t.Fatalf("divider-4 ticker ran at %v, want %v", every4, want)
	}
	if want := []Cycle{3, 7}; len(phased) != 2 || phased[0] != want[0] || phased[1] != want[1] {
		t.Fatalf("phase-3 ticker ran at %v, want %v", phased, want)
	}
}

func TestRegisterEveryMatchesDividerEdges(t *testing.T) {
	// RegisterEvery(d, 0, t) must tick on exactly the cycles where
	// Divider{d}.Edge(now) holds — the contract the migrated clock-domain
	// components rely on.
	for _, ratio := range []int{1, 2, 4, 7} {
		e := NewEngine()
		d := NewDivider(ratio)
		var ticked, edges []Cycle
		e.RegisterEvery(ratio, 0, TickFunc(func(now Cycle) { ticked = append(ticked, now) }))
		e.Register(TickFunc(func(now Cycle) {
			if d.Edge(now) {
				edges = append(edges, now)
			}
		}))
		e.Run(20)
		if len(ticked) != len(edges) {
			t.Fatalf("ratio %d: %d ticks vs %d edges", ratio, len(ticked), len(edges))
		}
		for i := range ticked {
			if ticked[i] != edges[i] {
				t.Fatalf("ratio %d: tick %d at %d, edge at %d", ratio, i, ticked[i], edges[i])
			}
		}
	}
}

func TestRegisterEveryValidation(t *testing.T) {
	for _, tc := range []struct{ every, phase int }{{0, 0}, {4, 4}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RegisterEvery(%d, %d) did not panic", tc.every, tc.phase)
				}
			}()
			NewEngine().RegisterEvery(tc.every, tc.phase, TickFunc(func(Cycle) {}))
		}()
	}
}

func TestTickHandleSleepAndWake(t *testing.T) {
	e := NewEngine()
	var ticked []Cycle
	h := e.RegisterEvery(1, 0, TickFunc(func(now Cycle) { ticked = append(ticked, now) }))
	e.Run(2) // cycles 1,2
	h.SleepUntil(6)
	e.Run(2) // 3,4 skipped
	h.Wake()
	e.Run(2) // 5,6 ticked (woken early)
	h.SleepUntil(9)
	e.Run(4) // 7,8 skipped; 9,10 ticked
	want := []Cycle{1, 2, 5, 6, 9, 10}
	if len(ticked) != len(want) {
		t.Fatalf("ticked %v, want %v", ticked, want)
	}
	for i := range want {
		if ticked[i] != want[i] {
			t.Fatalf("ticked %v, want %v", ticked, want)
		}
	}
	// A nil handle is a no-op.
	var nh *TickHandle
	nh.SleepUntil(100)
	nh.Wake()
}

func TestSetFullTickOverridesScheduling(t *testing.T) {
	e := NewEngine()
	e.SetFullTick(true)
	divided, slept := 0, 0
	e.RegisterEvery(4, 0, TickFunc(func(Cycle) { divided++ }))
	h := e.RegisterEvery(1, 0, TickFunc(func(Cycle) { slept++ }))
	h.SleepUntil(1 << 60)
	e.Run(8)
	if divided != 8 || slept != 8 {
		t.Fatalf("full-tick ran %d/%d ticks, want 8/8", divided, slept)
	}
	// A component can see which engine drives it; a nil handle, which
	// belongs to none, reads false.
	if !h.FullTick() {
		t.Fatal("handle of a full-tick engine reports scheduled ticking")
	}
	e.SetFullTick(false)
	var nh *TickHandle
	if h.FullTick() || nh.FullTick() {
		t.Fatal("handle of a scheduled engine, or a nil one, reports full tick")
	}
}

// TestIdleSkipCycleParity drives the same toy pipeline twice — once with
// plain every-cycle registration, once divider-registered with an idle
// fast-path — and asserts the observable work happens on identical
// cycles. This is the engine-level half of the parity the core-level
// regression suite pins on full systems.
func TestIdleSkipCycleParity(t *testing.T) {
	type producerConsumer struct {
		engine *Engine
		queue  []Cycle
		served []Cycle
	}
	// The consumer serves one queued item per divider-4 edge.
	build := func(fast bool) *producerConsumer {
		pc := &producerConsumer{engine: NewEngine()}
		d := NewDivider(4)
		var h *TickHandle
		consume := TickFunc(func(now Cycle) {
			if !fast && !d.Edge(now) {
				return
			}
			if len(pc.queue) > 0 {
				pc.queue = pc.queue[1:]
				pc.served = append(pc.served, now)
			}
			if fast {
				if len(pc.queue) == 0 {
					h.SleepUntil(1 << 60) // quiescent until re-armed
				} else {
					h.SleepUntil(d.NextEdge(now + 1))
				}
			}
		})
		produce := TickFunc(func(now Cycle) {
			if now%7 == 1 { // bursty arrivals
				pc.queue = append(pc.queue, now)
				h.Wake()
			}
		})
		pc.engine.Register(produce) // producer first, as in the real system
		if fast {
			h = pc.engine.RegisterEvery(4, 0, consume)
		} else {
			pc.engine.Register(consume)
		}
		return pc
	}
	plain, fast := build(false), build(true)
	plain.engine.Run(200)
	fast.engine.Run(200)
	if len(plain.served) == 0 {
		t.Fatal("toy pipeline served nothing")
	}
	if len(plain.served) != len(fast.served) {
		t.Fatalf("served %d vs %d items", len(plain.served), len(fast.served))
	}
	for i := range plain.served {
		if plain.served[i] != fast.served[i] {
			t.Fatalf("item %d served at %d (plain) vs %d (fast)", i, plain.served[i], fast.served[i])
		}
	}
}

func TestEventQueueOrdering(t *testing.T) {
	var q EventQueue
	var order []int
	q.At(5, func() { order = append(order, 5) })
	q.At(3, func() { order = append(order, 3) })
	q.At(3, func() { order = append(order, 30) }) // same-cycle: FIFO
	q.At(4, func() { order = append(order, 4) })
	q.FireDue(4)
	want := []int{3, 30, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", q.Len())
	}
	if at, ok := q.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt() = %d,%v want 5,true", at, ok)
	}
	q.FireDue(10)
	if q.Len() != 0 {
		t.Fatalf("Len() after drain = %d, want 0", q.Len())
	}
}

func TestEventQueueNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil) did not panic")
		}
	}()
	var q EventQueue
	q.At(1, nil)
}

func TestDividerEdges(t *testing.T) {
	d := NewDivider(4)
	edges := 0
	for c := Cycle(0); c < 16; c++ {
		if d.Edge(c) {
			edges++
		}
	}
	if edges != 4 {
		t.Fatalf("edges in 16 cycles = %d, want 4", edges)
	}
	if d.ToCPU(3) != 12 {
		t.Fatalf("ToCPU(3) = %d, want 12", d.ToCPU(3))
	}
	if got := d.NextEdge(5); got != 8 {
		t.Fatalf("NextEdge(5) = %d, want 8", got)
	}
	if got := d.NextEdge(8); got != 8 {
		t.Fatalf("NextEdge(8) = %d, want 8", got)
	}
}

func TestDividerClampsRatio(t *testing.T) {
	d := NewDivider(0)
	if d.Ratio() != 1 {
		t.Fatalf("Ratio() = %d, want 1", d.Ratio())
	}
	if !d.Edge(7) {
		t.Fatal("ratio-1 divider should have an edge every cycle")
	}
}

func TestCyclesForNanosRoundsUp(t *testing.T) {
	// 36ns at 3333.3 MHz = 120 cycles exactly (within float tolerance).
	if got := CyclesForNanos(36, 3333.3); got != 120 && got != 121 {
		t.Fatalf("CyclesForNanos(36, 3333.3) = %d, want 120 or 121", got)
	}
	// 12ns at 3333.3 MHz = 40.0 -> 40.
	if got := CyclesForNanos(12, 3333.3); got != 40 && got != 41 {
		t.Fatalf("CyclesForNanos(12, 3333.3) = %d, want 40 or 41", got)
	}
	// A fractional result must round up, never down: 1ns @ 1500MHz = 1.5.
	if got := CyclesForNanos(1, 1500); got != 2 {
		t.Fatalf("CyclesForNanos(1, 1500) = %d, want 2", got)
	}
	if got := CyclesForNanos(0, 1000); got != 0 {
		t.Fatalf("CyclesForNanos(0, 1000) = %d, want 0", got)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewQueue[int](3)
	for i := 1; i <= 3; i++ {
		if !q.Push(i) {
			t.Fatalf("Push(%d) rejected", i)
		}
	}
	if q.Push(4) {
		t.Fatal("Push beyond capacity accepted")
	}
	if !q.Full() {
		t.Fatal("Full() = false, want true")
	}
	if v, ok := q.Peek(); !ok || v != 1 {
		t.Fatalf("Peek() = %d,%v want 1,true", v, ok)
	}
	for i := 1; i <= 3; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop() = %d,%v want %d,true", v, ok, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop() on empty queue succeeded")
	}
}

func TestQueueUnbounded(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatalf("unbounded Push(%d) rejected", i)
		}
	}
	if q.Full() {
		t.Fatal("unbounded queue reports Full")
	}
	if q.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", q.Len())
	}
}

func TestQueueRemoveAt(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	if got := q.RemoveAt(2); got != 2 {
		t.Fatalf("RemoveAt(2) = %d, want 2", got)
	}
	want := []int{0, 1, 3, 4}
	for i, w := range want {
		if q.At(i) != w {
			t.Fatalf("At(%d) = %d, want %d", i, q.At(i), w)
		}
	}
}

func TestQueueClear(t *testing.T) {
	q := NewQueue[string](0)
	q.Push("a")
	q.Push("b")
	q.Clear()
	if !q.Empty() {
		t.Fatal("Clear did not empty the queue")
	}
}

func TestDelayPipe(t *testing.T) {
	d := NewDelay[int](3)
	d.Push(10, 42)
	if _, _, ok := d.Pop(12); ok {
		t.Fatal("item visible before latency elapsed")
	}
	if at := d.NextAt(); at != 13 {
		t.Fatalf("NextAt() = %d, want 13", at)
	}
	v, at, ok := d.Pop(15)
	if !ok || v != 42 || at != 13 {
		t.Fatalf("Pop(15) = %d,%d,%v want 42,13,true", v, at, ok)
	}
	if at := d.NextAt(); at != FarFuture {
		t.Fatalf("NextAt() of an empty pipe = %d, want FarFuture", at)
	}
}

func TestDelayOrdering(t *testing.T) {
	d := NewDelay[int](0)
	d.Push(5, 1)
	d.Push(5, 2)
	if v, _, _ := d.Pop(5); v != 1 {
		t.Fatalf("first Pop = %d, want 1", v)
	}
	if v, _, _ := d.Pop(5); v != 2 {
		t.Fatalf("second Pop = %d, want 2", v)
	}
	if d.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", d.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a push at an earlier cycle than the last did not panic")
		}
	}()
	d.Push(4, 3)
}

func TestDelayNegativeLatencyClamped(t *testing.T) {
	d := NewDelay[int](-5)
	d.Push(10, 1)
	if _, at, ok := d.Pop(10); !ok || at != 10 {
		t.Fatalf("Pop(10) = _,%d,%v: a negative latency is not zero", at, ok)
	}
}

func TestRunCtx(t *testing.T) {
	e := NewEngine()
	var ticks int
	e.Register(TickFunc(func(Cycle) { ticks++ }))

	n, err := e.RunCtx(context.Background(), 10_000)
	if err != nil || n != 10_000 {
		t.Fatalf("RunCtx = %d,%v want 10000,nil", n, err)
	}
	if ticks != 10_000 {
		t.Fatalf("ticks = %d, want 10000", ticks)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err = e.RunCtx(ctx, 10_000)
	if err != context.Canceled || n != 0 {
		t.Fatalf("cancelled RunCtx = %d,%v want 0,Canceled", n, err)
	}

	// The engine stays resumable: a fresh context picks up exactly where
	// the cancelled run stopped.
	n, err = e.RunCtx(context.Background(), 5)
	if err != nil || n != 5 {
		t.Fatalf("resumed RunCtx = %d,%v want 5,nil", n, err)
	}
	if e.Now() != 10_005 {
		t.Fatalf("Now() = %d, want 10005", e.Now())
	}
}

func TestRunCtxMidRunCancellation(t *testing.T) {
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the simulation partway through: the run must
	// stop at the next context check, not run to completion.
	e.Schedule(ctxCheckInterval+1, cancel)
	n, err := e.RunCtx(ctx, 100*ctxCheckInterval)
	if err != context.Canceled {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if n != 2*ctxCheckInterval {
		t.Fatalf("stepped %d cycles, want %d (cancel lands at the next check)", n, 2*ctxCheckInterval)
	}
}
