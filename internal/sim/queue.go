package sim

import (
	"iter"
	"math/bits"
)

// Queue is a bounded FIFO used for request queues throughout the memory
// hierarchy. A capacity of 0 means unbounded. The zero value is an
// empty unbounded queue.
//
// Items live in a circular buffer whose length is a power of two, so
// Push, Pop, Peek and At are O(1) and a queue in steady state never
// allocates: the buffer doubles only when a push finds it full, and so
// stays below twice the deepest the queue has been (or is sized once by
// Reserve, for a queue whose depth has a known bound). Every slot an item
// leaves is zeroed — a queue of pointers does not pin what it has
// handed back (pooled requests and messages are recycled by their
// owners the moment they are popped).
type Queue[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest item
	n    int // items queued
	cap  int
}

// NewQueue returns a FIFO bounded to capacity items (0 = unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{cap: capacity}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.n }

// Cap reports the capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// Full reports whether the queue cannot accept another item.
func (q *Queue[T]) Full() bool { return q.cap > 0 && q.n >= q.cap }

// Empty reports whether the queue has no items.
func (q *Queue[T]) Empty() bool { return q.n == 0 }

// slot maps the i-th oldest position to its index in buf.
func (q *Queue[T]) slot(i int) int { return (q.head + i) & (len(q.buf) - 1) }

// Push appends item and reports whether it was accepted.
func (q *Queue[T]) Push(item T) bool {
	if q.Full() {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.slot(q.n)] = item
	q.n++
	return true
}

// grow doubles the buffer, unwrapping the items to its front.
func (q *Queue[T]) grow() { q.resize(max(1, 2*len(q.buf))) }

// Reserve makes room for n items in one allocation, so a queue whose
// depth has a known bound never grows while it runs. It does nothing
// when the room is already there.
func (q *Queue[T]) Reserve(n int) {
	if n > len(q.buf) {
		q.resize(1 << bits.Len(uint(n-1)))
	}
}

// resize moves the items to a buffer of size slots (a power of two, at
// least the number of items), unwrapped to its front.
func (q *Queue[T]) resize(size int) {
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the oldest item; ok is false if empty. It is
// RemoveAt(0) spelled out: the hot path of every FIFO in the machine.
func (q *Queue[T]) Pop() (item T, ok bool) {
	if q.n == 0 {
		return item, false
	}
	var zero T
	item, q.buf[q.head] = q.buf[q.head], zero
	q.head = q.slot(1)
	q.n--
	return item, true
}

// Peek returns the oldest item without removing it; ok is false if empty.
func (q *Queue[T]) Peek() (item T, ok bool) {
	if q.n == 0 {
		return item, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest item (0 = front). It panics if out of range.
func (q *Queue[T]) At(i int) T {
	if uint(i) >= uint(q.n) {
		panic("sim: Queue index out of range")
	}
	return q.buf[q.slot(i)]
}

// RemoveAt removes and returns the i-th oldest item. It panics if out of
// range. Used by out-of-order schedulers (e.g. FR-FCFS). The gap closes
// from whichever end is nearer, so removing the front is a Pop.
func (q *Queue[T]) RemoveAt(i int) T {
	item := q.At(i)
	var zero T
	if i < q.n-1-i {
		for ; i > 0; i-- {
			q.buf[q.slot(i)] = q.buf[q.slot(i-1)]
		}
		q.buf[q.head] = zero
		q.head = q.slot(1)
	} else {
		for ; i < q.n-1; i++ {
			q.buf[q.slot(i)] = q.buf[q.slot(i+1)]
		}
		q.buf[q.slot(i)] = zero
	}
	q.n--
	return item
}

// Clear discards all items.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// Delay is a fixed-latency pipe: an item pushed at cycle t is ready at
// t+latency, and items leave in the order they entered. It is what a
// component uses for work that is always the same distance away — a
// cache's hit latency, a directory's lookup, a tag probe — and fires
// exactly as an EventQueue given the same pushes would: by ready cycle,
// then by push order. That holds because pushes arrive in cycle order,
// which Push checks; work whose delay varies, or that must interleave
// with other kinds of event in one same-cycle order, needs the heap.
type Delay[T any] struct {
	latency Cycle
	items   Queue[delayed[T]]
	last    Cycle // ready cycle of the newest item
}

type delayed[T any] struct {
	ready Cycle
	item  T
}

// NewDelay returns a pipe with the given latency in cycles (negative
// counts as zero).
func NewDelay[T any](latency Cycle) *Delay[T] {
	return &Delay[T]{latency: max(latency, 0)}
}

// Len reports the number of in-flight items.
func (d *Delay[T]) Len() int { return d.items.Len() }

// Reserve makes room for n in-flight items in one allocation, for a pipe
// whose depth has a known bound (the pushes one latency's worth of
// cycles can make).
func (d *Delay[T]) Reserve(n int) { d.items.Reserve(n) }

// Push inserts item at cycle now; it becomes ready at now+latency.
func (d *Delay[T]) Push(now Cycle, item T) {
	ready := now + d.latency
	if ready < d.last {
		panic("sim: Delay.Push at a cycle before the previous push")
	}
	d.last = ready
	d.items.Push(delayed[T]{ready: ready, item: item})
}

// Pop removes and returns the oldest item if it is ready at cycle now,
// with the cycle it became ready — the cycle its owner acts at, which
// is not now when the owner ticks late.
func (d *Delay[T]) Pop(now Cycle) (item T, at Cycle, ok bool) {
	head, ok := d.items.Peek()
	if !ok || head.ready > now {
		return item, 0, false
	}
	d.items.Pop()
	return head.item, head.ready, true
}

// NextAt reports the cycle the oldest item becomes ready — what its
// owner sleeps until — or FarFuture when the pipe is empty.
func (d *Delay[T]) NextAt() Cycle {
	if head, ok := d.items.Peek(); ok {
		return head.ready
	}
	return FarFuture
}

// List is a FIFO threaded through the links its elements embed, so
// queueing allocates nothing. An element waits on at most one list at a
// time: Push and PushFront panic on a link already on one, since two
// lists holding an element would hand it out twice. The zero value is
// empty.
type List[P any] struct {
	head, tail *Link[P]
	n          int
}

// Link is an element's place on a List: the link behind it, the element
// (stored by Push, so Pop needs no way back from a link to what embeds
// it) and whether it is on a list.
type Link[P any] struct {
	next *Link[P]
	elem P
	on   bool
}

// Push queues e, through its link ln, behind the list's elements.
func (l *List[P]) Push(e P, ln *Link[P]) {
	l.hold(e, ln)
	if l.tail == nil {
		l.head = ln
	} else {
		l.tail.next = ln
	}
	l.tail = ln
}

// PushFront queues e ahead of the list's elements: what a caller that
// popped the head to offer it elsewhere does when the offer is refused,
// so the list keeps its order.
func (l *List[P]) PushFront(e P, ln *Link[P]) {
	l.hold(e, ln)
	if l.head == nil {
		l.tail = ln
	}
	ln.next, l.head = l.head, ln
}

func (l *List[P]) hold(e P, ln *Link[P]) {
	if ln.on {
		panic("sim: an element pushed onto a List is already on one")
	}
	ln.elem, ln.on = e, true
	l.n++
}

// Pop unlinks and returns the oldest element, the zero P when the list
// is empty. A caller that recycles what it pops pops first.
func (l *List[P]) Pop() (e P) {
	if ln := l.head; ln != nil {
		l.head, ln.next, ln.on = ln.next, nil, false
		if l.head == nil {
			l.tail = nil
		}
		l.n--
		e = ln.elem
	}
	return e
}

// Head returns the oldest element without unlinking it, the zero P when
// the list is empty.
func (l *List[P]) Head() (e P) {
	if l.head != nil {
		e = l.head.elem
	}
	return e
}

// Len reports the number of elements on the list.
func (l *List[P]) Len() int { return l.n }

// All yields the elements oldest first, leaving them on the list.
func (l *List[P]) All() iter.Seq[P] {
	return func(yield func(P) bool) {
		for ln := l.head; ln != nil && yield(ln.elem); ln = ln.next {
		}
	}
}

// Pool recycles nodes of one type so a steady state allocates none. Get
// returns a node exactly as Put left it, or a zero one when none is
// free: the caller resets what it reuses, and so keeps what is worth
// keeping (a waiter slice's backing array). A pool guards nothing — a
// node Put twice is handed out twice — so a type whose double release
// must panic marks its nodes itself and checks the mark before Put.
//
// Fresh nodes come a slab at a time: when Get finds nothing to recycle
// it allocates a slab, returns its first node and hands out the rest,
// in order, once the recycled ones run out again. Each slab is twice
// the last, from poolFirstSlab up to poolMaxSlab nodes, so a pool that
// grows to n nodes makes about log2(n) allocations, and the nodes it
// holds beyond its high-water mark, the rest of the last slab, number
// fewer than poolMaxSlab and fewer than that mark plus poolFirstSlab.
type Pool[T any] struct {
	free  []*T
	slab  []T // fresh nodes not yet handed out
	grown int // size of the last slab allocated
	live  int // nodes handed out by Get and not yet Put back
}

const (
	poolFirstSlab = 4
	poolMaxSlab   = 256
)

// Get returns a recycled node, or a fresh zero one.
func (p *Pool[T]) Get() *T {
	p.live++
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	if len(p.slab) == 0 {
		p.grown = min(max(2*p.grown, poolFirstSlab), poolMaxSlab)
		p.slab = make([]T, p.grown)
	}
	x := &p.slab[0]
	p.slab = p.slab[1:]
	return x
}

// Put hands x back for a later Get. The caller no longer refers to it.
func (p *Pool[T]) Put(x *T) {
	p.live--
	p.free = append(p.free, x)
}

// Live reports the nodes Get has handed out and Put not taken back: on a
// machine with nothing in flight, a node its owner never recycled.
func (p *Pool[T]) Live() int { return p.live }
