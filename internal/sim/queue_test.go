package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestQueueAgainstSliceModel drives a Queue and a plain slice with the
// same random operations — weighted so the depth drifts up and down and
// the ring wraps its buffer many times — and requires them to agree on
// every answer, bounded and unbounded. The buffer must stay below twice
// the deepest the queue has been.
func TestQueueAgainstSliceModel(t *testing.T) {
	for _, capacity := range []int{0, 1, 5, 16} {
		rng := rand.New(rand.NewSource(int64(41 + capacity)))
		q := NewQueue[int](capacity)
		var model []int
		next, peak, pops := 0, 0, 0
		for step := 0; step < 200_000; step++ {
			// Long phases that favour pushes, then pops.
			pushBias := 6
			if (step/300)%2 == 1 {
				pushBias = 3
			}
			switch op := rng.Intn(10); {
			case op < pushBias:
				full := capacity > 0 && len(model) >= capacity
				if q.Full() != full {
					t.Fatalf("cap %d step %d: Full() = %v with %d queued", capacity, step, q.Full(), len(model))
				}
				if ok := q.Push(next); ok == full {
					t.Fatalf("cap %d step %d: Push accepted = %v with %d queued", capacity, step, ok, len(model))
				}
				if !full {
					model = append(model, next)
				}
				next++
			case op < 8:
				got, ok := q.Pop()
				if ok != (len(model) > 0) || (ok && got != model[0]) {
					t.Fatalf("cap %d step %d: Pop = %d,%v, model %v", capacity, step, got, ok, model)
				}
				if ok {
					model = model[1:]
					pops++
				}
			case op == 8 && len(model) > 0:
				i := rng.Intn(len(model))
				if got := q.RemoveAt(i); got != model[i] {
					t.Fatalf("cap %d step %d: RemoveAt(%d) = %d, want %d", capacity, step, i, got, model[i])
				}
				model = append(model[:i:i], model[i+1:]...)
			case op == 9 && rng.Intn(400) == 0:
				q.Clear()
				model = nil
			}
			peak = max(peak, len(model))
			if q.Len() != len(model) || q.Empty() != (len(model) == 0) {
				t.Fatalf("cap %d step %d: Len %d Empty %v, model holds %d", capacity, step, q.Len(), q.Empty(), len(model))
			}
			head, ok := q.Peek()
			if ok != (len(model) > 0) || (ok && head != model[0]) {
				t.Fatalf("cap %d step %d: Peek = %d,%v, model %v", capacity, step, head, ok, model)
			}
			if len(model) > 0 {
				if i := rng.Intn(len(model)); q.At(i) != model[i] {
					t.Fatalf("cap %d step %d: At(%d) = %d, want %d", capacity, step, i, q.At(i), model[i])
				}
			}
			if len(q.buf) > 2*peak {
				t.Fatalf("cap %d step %d: buffer of %d for a peak depth of %d", capacity, step, len(q.buf), peak)
			}
		}
		if wraps := pops / max(1, len(q.buf)); wraps < 100 {
			t.Errorf("cap %d: the ring wrapped only %d times", capacity, wraps)
		}
	}
}

// node is an element of the list tests: a link and a value to tell
// nodes apart.
type node struct {
	link Link[*node]
	v    int
}

// TestListAgainstSliceModel drives a List and a plain slice with the
// same random operations — pushes at either end, pops, in phases that
// let the depth drift up and down and empty the list often — and
// requires them to agree on every answer. A popped node is pushed again
// later, so links are reused as the machine's pooled requests and
// messages reuse theirs.
func TestListAgainstSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var l List[*node]
	var model, free []*node
	empties := 0
	for step := 0; step < 200_000; step++ {
		pushBias := 6
		if (step/300)%2 == 1 {
			pushBias = 3
		}
		switch op := rng.Intn(10); {
		case op < pushBias:
			x := &node{v: step}
			if n := len(free); n > 0 && rng.Intn(2) == 0 {
				x, free = free[n-1], free[:n-1]
			}
			if rng.Intn(4) == 0 {
				l.PushFront(x, &x.link)
				model = append([]*node{x}, model...)
			} else {
				l.Push(x, &x.link)
				model = append(model, x)
			}
		default:
			got := l.Pop()
			if len(model) == 0 {
				if got != nil {
					t.Fatalf("step %d: Pop of an empty list = %v", step, got)
				}
				continue
			}
			if got != model[0] {
				t.Fatalf("step %d: Pop = %v, want %v", step, got, model[0])
			}
			model, free = model[1:], append(free, got)
			if len(model) == 0 {
				empties++
			}
		}
		if l.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model holds %d", step, l.Len(), len(model))
		}
		if head := l.Head(); (len(model) == 0 && head != nil) || (len(model) > 0 && head != model[0]) {
			t.Fatalf("step %d: Head = %v, model %v", step, head, model)
		}
		if step%97 == 0 && !slices.Equal(slices.Collect(l.All()), model) {
			t.Fatalf("step %d: All = %v, model %v", step, slices.Collect(l.All()), model)
		}
	}
	if empties < 100 {
		t.Errorf("the list emptied only %d times", empties)
	}
}

// TestListSecondPushPanics: an element already on a list — this one or
// another — cannot be pushed at either end; once popped it can.
func TestListSecondPushPanics(t *testing.T) {
	var l, other List[*node]
	x := &node{}
	l.Push(x, &x.link)
	for name, push := range map[string]func(){
		"Push onto the same list":      func() { l.Push(x, &x.link) },
		"PushFront onto the same list": func() { l.PushFront(x, &x.link) },
		"Push onto another list":       func() { other.Push(x, &x.link) },
		"PushFront onto another list":  func() { other.PushFront(x, &x.link) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			push()
		}()
	}
	if l.Len() != 1 || other.Len() != 0 || l.Pop() != x {
		t.Fatal("a refused push changed a list")
	}
	other.Push(x, &x.link)
	if other.Pop() != x {
		t.Fatal("a popped element could not wait on another list")
	}
}

// TestQueueOutOfRangePanics: the ring must refuse an index past the
// queued items even when the slot behind it exists.
func TestQueueOutOfRangePanics(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 3; i++ {
		q.Push(i)
	}
	for _, f := range []func(){
		func() { q.At(3) },
		func() { q.At(-1) },
		func() { q.RemoveAt(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range index did not panic")
				}
			}()
			f()
		}()
	}
}

// TestQueueDropsVacatedReferences looks inside the buffer: whatever way
// an item leaves, no slot outside the queued span may still hold it —
// the owners of pooled requests and messages recycle them on pop, and a
// stale pointer in the ring would pin (or alias) a recycled object.
func TestQueueDropsVacatedReferences(t *testing.T) {
	live := func(q *Queue[*int]) int {
		n := 0
		for _, p := range q.buf {
			if p != nil {
				n++
			}
		}
		return n
	}
	q := NewQueue[*int](0)
	check := func(what string) {
		t.Helper()
		if live(q) != q.Len() {
			t.Fatalf("after %s: %d pointers in the buffer, %d items queued", what, live(q), q.Len())
		}
	}
	for i := 0; i < 11; i++ {
		q.Push(new(int))
	}
	q.Pop()
	check("Pop")
	q.RemoveAt(1) // nearer the front
	check("RemoveAt near the front")
	q.RemoveAt(q.Len() - 2) // nearer the back
	check("RemoveAt near the back")
	q.RemoveAt(0)
	check("RemoveAt(0)")
	for i := 0; i < 9; i++ { // wrap, then grow while wrapped
		q.Push(new(int))
		q.Pop()
		q.Push(new(int))
		check("a wrapping Push/Pop")
	}
	q.Clear()
	check("Clear")

	d := NewDelay[*int](2)
	d.Push(0, new(int))
	d.Push(0, new(int))
	d.Pop(2)
	if d.items.buf[0].item != nil || d.items.buf[1].item == nil {
		t.Fatal("Delay.Pop left the popped pointer in its buffer (or dropped the queued one)")
	}
}

// TestQueueSteadyStateDoesNotAllocate: once the ring has reached its
// working depth, pushes and pops — wrapping or not — allocate nothing.
func TestQueueSteadyStateDoesNotAllocate(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 300; i++ {
			q.Pop()
			q.Push(i)
		}
		q.RemoveAt(40)
		q.Push(0)
	}); allocs != 0 {
		t.Fatalf("%v allocations per run in steady state", allocs)
	}
}

// BenchmarkQueueDeepPop pops and refills the head of a queue that stays
// 256 deep — the depth a link-bound directory bank's retry queue and a
// full MRQ run at, and the case a shift-on-pop queue pays O(depth) for.
func BenchmarkQueueDeepPop(b *testing.B) {
	q := NewQueue[*int](0)
	for i := 0; i < 256; i++ {
		q.Push(new(int))
	}
	b.ReportAllocs()
	for b.Loop() {
		p, _ := q.Pop()
		q.Push(p)
	}
}

// BenchmarkListPushPop fills a list 16 deep and drains it — the depth of
// a busy mesh port or wheel slot — so a Push or Pop that stopped inlining
// at its call sites shows here first. The work is in a function of its
// own because b.Loop keeps the calls in its body from being inlined.
func BenchmarkListPushPop(b *testing.B) {
	nodes := make([]node, 16)
	var l List[*node]
	b.ReportAllocs()
	for b.Loop() {
		fillAndDrain(&l, nodes)
	}
}

func fillAndDrain(l *List[*node], nodes []node) {
	for i := range nodes {
		l.Push(&nodes[i], &nodes[i].link)
	}
	for l.Pop() != nil {
	}
}

// TestDelayMatchesEventQueue: a Delay fires what an EventQueue given the
// same constant-latency pushes fires — the same items in the same order,
// each handed the cycle it became ready — several to a cycle, across
// idle gaps, drained late, and at zero latency.
func TestDelayMatchesEventQueue(t *testing.T) {
	type fired struct {
		id int
		at Cycle
	}
	for _, lat := range []Cycle{0, 1, 7} {
		rng := rand.New(rand.NewSource(int64(lat) + 1))
		d := NewDelay[*int](lat)
		var q EventQueue
		var fromDelay, fromQueue []fired
		record := func(arg any, at Cycle) { fromQueue = append(fromQueue, fired{*arg.(*int), at}) }
		next := 0
		for now := Cycle(1); now < 4000; now++ {
			if rng.Intn(4) == 0 {
				now += Cycle(rng.Intn(20)) // an idle gap: the owner slept
			}
			if rng.Intn(3) == 0 { // the owner ticks; otherwise it is late
				q.FireDue(now)
				for id, at, ok := d.Pop(now); ok; id, at, ok = d.Pop(now) {
					fromDelay = append(fromDelay, fired{*id, at})
				}
				if at, ok := q.NextAt(); (ok && d.NextAt() != at) || (!ok && d.NextAt() != FarFuture) {
					t.Fatalf("latency %d, cycle %d: Delay.NextAt %d, EventQueue.NextAt %d,%v", lat, now, d.NextAt(), at, ok)
				}
			}
			for k := rng.Intn(4); k > 0; k-- {
				id := new(int)
				*id = next
				next++
				d.Push(now, id)
				q.AtCall(now+lat, record, id)
			}
			if d.Len() != q.Len() {
				t.Fatalf("latency %d, cycle %d: %d in the pipe, %d in the queue", lat, now, d.Len(), q.Len())
			}
		}
		if len(fromDelay) < 1000 || !slices.Equal(fromDelay, fromQueue) {
			t.Fatalf("latency %d: the pipe fired %d items, the queue %d, and they differ", lat, len(fromDelay), len(fromQueue))
		}
	}
}

// TestPool pins the free list's whole contract.
func TestPool(t *testing.T) {
	type node struct{ v, w int }
	var p Pool[node]
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("two Gets returned one object")
	}
	a.v, a.w = 7, 8
	p.Put(a)
	if got := p.Get(); got != a || got.v != 7 || got.w != 8 {
		t.Fatalf("Get after Put returned %p %+v, want %p as Put left it", got, *got, a)
	}
	if c := p.Get(); c == a || c == b || *c != (node{}) {
		t.Fatalf("an empty pool handed out %p %+v, want a new zero node", c, *c)
	}
	p.Put(a)
	p.Put(b)
	if x, y := p.Get(), p.Get(); x == y {
		t.Fatal("two Gets returned one object after two Puts")
	}
	// Fresh nodes come in doubling slabs of 4 up to 256: 1,000 Gets
	// from a never-Put pool make at most ceil(log2(1000/4)) + 1 slab
	// allocations, and hand out 1,000 distinct zero nodes.
	const gets = 1000
	var sink *node // keeps the new nodes on the heap
	slabs := math.Ceil(math.Log2(gets/poolFirstSlab)) + 1
	if allocs := testing.AllocsPerRun(1, func() {
		var fresh Pool[node]
		for range gets {
			sink = fresh.Get()
		}
	}); allocs > slabs || sink == nil {
		t.Fatalf("%d Gets from a never-Put pool made %v allocations, want at most %v", gets, allocs, slabs)
	}
	var fresh Pool[node]
	seen := make(map[*node]bool, gets)
	for i := range gets {
		x := fresh.Get()
		if *x != (node{}) || seen[x] {
			t.Fatalf("fresh Get %d handed out %p %+v, want a new zero node", i, x, *x)
		}
		seen[x] = true
		x.v = i + 1
	}
	// A recycled node goes out before the rest of the slab, and the
	// slab's next fresh node after it.
	var mixed Pool[node]
	first := mixed.Get()
	first.v = 9
	mixed.Put(first)
	if got := mixed.Get(); got != first || got.v != 9 {
		t.Fatalf("Get with a node Put and fresh ones left returned %p %+v, want the recycled %p", got, *got, first)
	}
	if got := mixed.Get(); got == first || *got != (node{}) {
		t.Fatalf("Get after the recycled node returned %p %+v, want a fresh zero node", got, *got)
	}
	var warm Pool[node]
	warm.Put(new(node))
	if allocs := testing.AllocsPerRun(100, func() { warm.Put(warm.Get()) }); allocs != 0 {
		t.Fatalf("a Get/Put pair made %v allocations in steady state", allocs)
	}
}

// TestQueueReserve pins Reserve: one allocation makes room for n items
// (a buffer of the next power of two), after which n pushes, wrapped
// around the ring, allocate nothing and come out in order.
func TestQueueReserve(t *testing.T) {
	var q Queue[int]
	if a := testing.AllocsPerRun(1, func() { q = Queue[int]{}; q.Reserve(100) }); a != 1 {
		t.Fatalf("Reserve(100) made %v allocations, want 1", a)
	}
	if len(q.buf) != 128 {
		t.Fatalf("Reserve(100) made room for %d, want 128", len(q.buf))
	}
	q.Reserve(50) // already there: a no-op
	for i := range 60 {
		q.Push(i)
	}
	for range 60 {
		q.Pop()
	}
	if a := testing.AllocsPerRun(1, func() {
		for i := range 100 {
			q.Push(i)
		}
		for i := range 100 {
			if v, _ := q.Pop(); v != i {
				t.Fatalf("popped %d, want %d", v, i)
			}
		}
	}); a != 0 || len(q.buf) != 128 {
		t.Fatalf("100 pushes into reserved room made %v allocations and a buffer of %d, want 0 and 128", a, len(q.buf))
	}
}

// TestDelayReserve pins Delay.Reserve: a pipe sized for its bound, one
// push a cycle with what is due popped first, holds at most its latency
// in items and fills the room it was given with one allocation.
func TestDelayReserve(t *testing.T) {
	const lat = 4
	var d *Delay[int]
	if a := testing.AllocsPerRun(1, func() {
		d = NewDelay[int](lat)
		d.Reserve(lat + 1)
		for now := range Cycle(64) {
			for _, _, ok := d.Pop(now); ok; _, _, ok = d.Pop(now) {
			}
			d.Push(now, int(now))
		}
	}); a != 2 || len(d.items.buf) != 8 || d.Len() != lat {
		t.Fatalf("building, reserving and running a pipe made %v allocations, a buffer of %d and %d in flight; want 2, 8 and %d", a, len(d.items.buf), d.Len(), lat)
	}
}
