package cache

import (
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// Port accepts memory requests from the level above. Submit reports
// whether the request was accepted; a false return means "retry later"
// (queue full), providing the back-pressure path from DRAM all the way up
// to the cores.
type Port interface {
	Submit(r *mem.Request, now sim.Cycle) bool
}

// Outbox is the sending side of a Port: what a component that must not
// lose a refused request holds toward the level below. A request the
// port refuses waits here, parked on a list threaded through the
// requests, so refusal allocates nothing; the owner is woken to retry
// it, and the list drains in order.
type Outbox struct {
	to    Port
	owner *sim.TickHandle
	q     sim.List[*mem.Request]
}

// NewOutbox returns an empty outbox toward to.
func NewOutbox(to Port) Outbox { return Outbox{to: to} }

// SetOwner names the tick handle a refused Send wakes: the component
// whose Tick calls Retry, which must stay awake while Len is non-zero.
func (o *Outbox) SetOwner(h *sim.TickHandle) { o.owner = h }

// Send offers r to the port at once, whatever is already queued, and on
// refusal queues r and wakes the owner. A fresh request may so overtake
// refused ones — the port can have room for it where it had none for the
// head — and the cycle each submission lands on is part of every
// recorded digest: do not queue behind a non-empty outbox instead.
func (o *Outbox) Send(r *mem.Request, now sim.Cycle) {
	if !o.to.Submit(r, now) {
		o.q.Push(r, &r.Link)
		o.owner.Wake()
	}
}

// Retry offers the queued requests, oldest first, until one is refused:
// order is kept among them, so nothing behind a refused head is tried.
// The head is unparked before it is offered, since the port may park it
// on a waitlist of its own, and parked again at the front on refusal.
func (o *Outbox) Retry(now sim.Cycle) {
	for r := o.q.Pop(); r != nil; r = o.q.Pop() {
		if !o.to.Submit(r, now) {
			o.q.PushFront(r, &r.Link)
			return
		}
	}
}

// Len reports the requests waiting for a retry — part of what the owner
// has in flight.
func (o *Outbox) Len() int { return o.q.Len() }
