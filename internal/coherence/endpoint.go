package coherence

import "stackedsim/internal/sim"

// endpoint is a controller's place on the mesh, the part a directory
// bank and a private L2 share: delivered messages wait in inbox for the
// owner's Tick (mesh ejection and protocol work stay in separate engine
// phases), injections the mesh refused wait in out, each carrying its
// destination, and are retried in order, and handle lets it sleep
// whenever both are empty and the owner's own fixed-latency pipe has
// nothing due. Both lists are threaded through the messages, so neither
// allocates.
type endpoint struct {
	f      *Fabric
	node   int
	inbox  fifo
	out    fifo
	handle *sim.TickHandle
}

// register enters the owner in the tick order, asleep until a message or
// a request arrives.
func (ep *endpoint) register(e *sim.Engine, owner sim.Ticker) {
	ep.handle = e.RegisterEvery(1, 0, owner)
	ep.handle.SleepUntil(sim.FarFuture)
}

// recv queues a delivered message for the owner's next Tick.
func (ep *endpoint) recv(m *message, now sim.Cycle) {
	ep.inbox.Push(&m.Header, &m.Link)
	ep.handle.Wake()
}

// inject sends m into the mesh toward node dst, queueing it for retry (in
// order) when the injection port is out of credits. Unlike a
// cache.Outbox it never lets a fresh message overtake a queued one: the
// mesh orders messages per source-destination pair and the protocol
// relies on it.
func (ep *endpoint) inject(m *message, dst int, now sim.Cycle) {
	m.Dst = dst
	if ep.out.Len() == 0 && ep.f.mesh.Send(ep.node, dst, ep.f.bytesOf(m), &m.Header, now) {
		ep.stamp(m, now)
		return
	}
	ep.out.Push(&m.Header, &m.Link)
	ep.handle.Wake()
}

// retry offers the head of the refused injections until one is refused
// again: order is kept, so nothing behind a refused head could go, and a
// link-bound bank's queue runs tens deep. The head is unlinked before it
// is offered, since the mesh queues it on the same link, and goes back
// to the front on refusal.
func (ep *endpoint) retry(now sim.Cycle) {
	for h := ep.out.Pop(); h != nil; h = ep.out.Pop() {
		if !ep.f.mesh.Send(ep.node, h.Dst, ep.f.bytesOf(h.Body), h, now) {
			ep.out.PushFront(h, &h.Link)
			return
		}
		ep.stamp(h.Body, now)
	}
}

// stamp records on the requester's lifecycle the moment a request, or a
// data/grant response, actually enters the network.
func (ep *endpoint) stamp(m *message, now sim.Cycle) {
	switch m.kind {
	case mGetS, mGetM:
		m.tag.Inject(now)
	case mData, mDataE, mAckM, mDataOwner:
		m.tag.RespInject(now)
	}
}

// sleep chooses how long the owner can sleep after ticking at now: until
// next, the cycle its fixed-latency pipe has something ready, or not at
// all while a message waits, an injection retries or retries of the
// owner's own pin it awake.
func (ep *endpoint) sleep(now sim.Cycle, pinned bool, next sim.Cycle) {
	if pinned || ep.inbox.Len() > 0 || ep.out.Len() > 0 {
		next = now + 1
	}
	ep.handle.SleepUntil(next)
}
