// Package noc models a cycle-level 2D mesh network-on-chip. Each node
// hosts one router with five ports (local injection/ejection plus the
// four compass neighbours); messages are routed dimension-ordered
// (X first, then Y), serialized over links of configurable width and
// latency, and buffered in bounded per-port input queues with
// credit-based backpressure: a router only forwards a message when it
// holds a credit for the downstream input buffer — a free slot there —
// so a full buffer stalls the upstream head in place instead of dropping.
//
// The whole mesh is one sim.Ticker: the routers that hold a message
// advance in a fixed deterministic order inside Tick, link traversals
// ride a timing wheel, and the mesh sleeps whenever no message is queued
// or in flight. A message crosses the mesh as the Header its client's
// message embeds, and is handed back to Deliver as that same header: the
// client owns the message, its meaning and its recycling; the mesh owns
// nothing.
package noc

import (
	"fmt"
	"math/bits"

	"stackedsim/internal/sim"
)

// Header is what a message embeds to cross the mesh. Send addresses it;
// the rest is the mesh's from Send until Deliver hands the header back.
type Header[P any] struct {
	// Link is the message's place on the one list it waits on: a port or
	// a wheel slot in the mesh, one of the client's own lists outside it.
	Link sim.Link[*Header[P]]
	// at is the router the message is at and port the input port it
	// occupies there. out is the output port it leaves at through, routed
	// once when it enters the input port: a message on the wheel with a
	// compass out is on that link (out is re-routed when it lands); one
	// with portLocal is in its destination's ejection stage. dx and dy
	// are the hops left east (negative: west) and south (negative:
	// north), set by Send and counted down per hop. With the link they
	// are all a hop touches, and sit in the header's first 64 bytes.
	at        int32
	dx, dy    int32
	port, out uint8
	ser       sim.Cycle // link occupancy: ceil(Bytes/LinkBytes)
	born      sim.Cycle
	// Body is what the receiver reads the message by, set by the client;
	// for a message that embeds the header, a pointer to it.
	Body P

	Src, Dst int
	Bytes    int
}

// Msg is a message that carries nothing but its header: the traffic of a
// mesh built by New.
type Msg = Header[struct{}]

// Router ports, in the fixed arbitration order used by Tick. Local
// (injection) traffic wins ties, then the compass ports.
const (
	portLocal = iota
	portWest
	portEast
	portNorth
	portSouth
	numPorts
)

// opposite maps an output direction to the input port it feeds on the
// neighbouring router (a message leaving eastward arrives on the west
// port).
var opposite = [numPorts]uint8{portLocal, portEast, portWest, portSouth, portNorth}

// hopX and hopY are the grid step an output direction takes.
var (
	hopX = [numPorts]int32{portWest: -1, portEast: 1}
	hopY = [numPorts]int32{portNorth: -1, portSouth: 1}
)

// Params sizes a mesh.
type Params struct {
	W, H int
	// LinkBytes is the link width: bytes transferred per cycle, so a
	// message occupies a link for ceil(Bytes/LinkBytes) cycles.
	LinkBytes int
	// LinkLatency is the wire traversal delay added after serialization.
	LinkLatency sim.Cycle
	// RouterLatency is the per-hop pipeline delay (route computation,
	// switch allocation), also charged on local ejection.
	RouterLatency sim.Cycle
	// BufPkts bounds each input port's buffer in messages; it is the
	// credit count a sender can consume toward that port.
	BufPkts int
}

// Stats are the mesh's cumulative counters.
type Stats struct {
	Injected  uint64 // messages accepted by Send
	Rejected  uint64 // Send calls refused (local buffer full)
	Delivered uint64 // messages handed to the Deliver callback
	Hops      uint64 // router->router link traversals
	Flits     uint64 // link-cycles consumed by serialization
	// CreditStalls counts cycles a head-of-queue message could not
	// advance because the downstream input buffer was full; LinkStalls
	// counts cycles it waited for the output link to finish serializing
	// the previous message.
	CreditStalls uint64
	LinkStalls   uint64
	// LatencySum accumulates Send-to-Deliver cycles over all delivered
	// messages (divide by Delivered for the mean).
	LatencySum uint64
}

// AvgLatency is the mean Send-to-Deliver latency in cycles.
func (s *Stats) AvgLatency() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Delivered)
}

// AvgHops is the mean number of router->router traversals per
// delivered message (0 for purely local traffic).
func (s *Stats) AvgHops() float64 {
	if s.Delivered == 0 {
		return 0
	}
	return float64(s.Hops) / float64(s.Delivered)
}

// router is one node's state. Whether the head of an occupied input
// port moves is decided from it alone: headOut names the head's output,
// outBusy the link's serialization, credits the room beyond it.
//
// in are the input buffers. Send bounds the local injection port's by
// BufPkts; a compass port's bound is its upstream router's credits, the
// list itself is unbounded.
type router[P any] struct {
	in      [numPorts]sim.List[*Header[P]]
	outBusy [numPorts]sim.Cycle // link busy (serializing) until this cycle
	// credits[out] counts the free slots in the input buffer beyond the
	// compass output out: taken when a message leaves through it,
	// returned when the neighbour dequeues one from that buffer.
	credits [numPorts]int
	headOut [numPorts]uint8 // out of in[pt]'s head, while in[pt] is occupied
	ports   uint8           // bit pt is set while in[pt] holds a message
}

// Mesh is a W x H grid of routers. Node i sits at (i%W, i/W).
type Mesh[P any] struct {
	p       Params
	routers []router[P]
	// step[out] is the node number's change leaving through out, and
	// the way back from the router a message on input port out came from.
	step   [numPorts]int
	handle *sim.TickHandle
	stats  Stats
	queued int // messages resident in some input queue
	// occupied has bit r set exactly while router r holds a queued
	// message; Tick walks it instead of the routers.
	occupied []uint64

	// The wheel schedules link arrivals and ejections. Every delay is a
	// small constant (router latency, plus serialization and the wire),
	// so slot c&(len-1) can only ever hold the events of one cycle c:
	// its length is a power of two above the longest delay scheduled so
	// far. A slot's FIFO order is schedule order, and slots fire in
	// cycle order — the order a (cycle, sequence) heap pops in.
	wheel []sim.List[*Header[P]]
	// wheelAt is the cycle of the last tick: slots for earlier cycles
	// are empty, and everything pending lies within a wheel's length of
	// it. Its own slot can hold events again — a zero-delay one is
	// scheduled after the slot fired, and fires first on the next tick.
	wheelAt sim.Cycle
	pending int // events on the wheel

	// Deliver receives every message that reaches its destination's
	// local port, dst, as the header Send was given; from then on the
	// message is the client's again. Must be set before traffic flows.
	Deliver func(dst int, msg *Header[P], now sim.Cycle)
}

// New builds an idle mesh for messages that carry nothing but their
// header.
func New(p Params) *Mesh[struct{}] { return NewOf[struct{}](p) }

// NewOf builds an idle mesh for messages whose headers carry a P.
func NewOf[P any](p Params) *Mesh[P] {
	if p.W < 1 || p.H < 1 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", p.W, p.H))
	}
	if p.LinkBytes < 1 || p.BufPkts < 1 {
		panic("noc: LinkBytes and BufPkts must be positive")
	}
	if p.LinkLatency < 0 || p.RouterLatency < 0 {
		// An event in the past has no slot. Zero is a zero-stage router
		// or wire: its events fire on the next tick.
		panic(fmt.Sprintf("noc: negative latency (link %d, router %d)", p.LinkLatency, p.RouterLatency))
	}
	m := &Mesh[P]{p: p, routers: make([]router[P], p.W*p.H), occupied: make([]uint64, (p.W*p.H+63)/64),
		step: [numPorts]int{portWest: -1, portEast: 1, portNorth: -p.W, portSouth: p.W}}
	for i := range m.routers {
		for out := portWest; out < numPorts; out++ {
			m.routers[i].credits[out] = p.BufPkts
		}
	}
	m.growWheel(p.RouterLatency + p.LinkLatency + 1) // a one-flit hop
	return m
}

// Nodes reports the node count (W*H).
func (m *Mesh[P]) Nodes() int { return m.p.W * m.p.H }

// SetHandle arms the idle fast-path: the mesh sleeps whenever nothing
// is queued or in flight and wakes on Send.
func (m *Mesh[P]) SetHandle(h *sim.TickHandle) {
	m.handle = h
	h.SleepUntil(sim.FarFuture)
}

// Stats returns the counters.
func (m *Mesh[P]) Stats() *Stats { return &m.stats }

// ResetStats clears the cumulative counters (warmup boundary).
func (m *Mesh[P]) ResetStats() { m.stats = Stats{} }

// InFlight reports messages currently queued or traversing links —
// zero means the mesh is drained.
func (m *Mesh[P]) InFlight() int { return m.queued + m.pending }

// OccupiedRouters reports how many routers the mesh believes hold a
// queued message — zero on a drained mesh.
func (m *Mesh[P]) OccupiedRouters() int {
	n := 0
	for _, w := range m.occupied {
		n += bits.OnesCount64(w)
	}
	return n
}

// CreditsOutstanding reports how many credits the routers' compass
// outputs are missing — slots taken downstream and not yet returned:
// zero on a drained mesh.
func (m *Mesh[P]) CreditsOutstanding() int {
	n := 0
	for i := range m.routers {
		for out := portWest; out < numPorts; out++ {
			n += m.p.BufPkts - m.routers[i].credits[out]
		}
	}
	return n
}

// Send injects the message whose header is msg at node src toward node
// dst; a nil msg is a message with nothing but a header, which the mesh
// makes. It returns false — consuming no resources — when src's local
// input buffer is out of credits; the caller retries later (backpressure
// reaches all the way into the clients). bytes sizes link serialization.
func (m *Mesh[P]) Send(src, dst, bytes int, msg *Header[P], now sim.Cycle) bool {
	if m.routers[src].in[portLocal].Len() >= m.p.BufPkts {
		m.stats.Rejected++
		return false
	}
	if msg == nil {
		msg = new(Header[P])
	}
	msg.Src, msg.Dst, msg.Bytes, msg.born, msg.at, msg.port = src, dst, bytes, now, int32(src), portLocal
	msg.dx, msg.dy = int32(dst%m.p.W-src%m.p.W), int32(dst/m.p.W-src/m.p.W)
	msg.ser = m.serCycles(bytes)
	m.enqueue(msg)
	m.stats.Injected++
	if m.handle != nil {
		m.handle.Wake()
	}
	return true
}

// enqueue lands a message in the input port it was bound for, routing it
// there and then: a head that stalls for many cycles is not re-routed
// on each of them.
func (m *Mesh[P]) enqueue(msg *Header[P]) {
	rt := &m.routers[msg.at]
	msg.out = route(msg)
	ip := &rt.in[msg.port]
	if ip.Len() == 0 {
		rt.headOut[msg.port] = msg.out
	}
	ip.Push(msg, &msg.Link)
	if rt.ports == 0 {
		m.occupied[msg.at/64] |= 1 << (msg.at % 64)
	}
	rt.ports |= 1 << msg.port
	m.queued++
}

// dequeue pops and returns the head of input port pt of router r,
// returning the credit it held: to Send's bound on the local port, to
// the upstream router on a compass port.
func (m *Mesh[P]) dequeue(r, pt int) *Header[P] {
	rt := &m.routers[r]
	ip := &rt.in[pt]
	msg := ip.Pop()
	if pt != portLocal {
		m.routers[r+m.step[pt]].credits[opposite[pt]]++
	}
	m.queued--
	if next := ip.Head(); next != nil {
		rt.headOut[pt] = next.out
		return msg
	}
	if rt.ports &^= 1 << pt; rt.ports == 0 {
		m.occupied[r/64] &^= 1 << (r % 64)
	}
	return msg
}

// route returns the output port a message takes from where it is, by
// the hops it has left: X-dimension first, then Y, then local ejection.
func route[P any](msg *Header[P]) uint8 {
	switch {
	case msg.dx > 0:
		return portEast
	case msg.dx < 0:
		return portWest
	case msg.dy > 0:
		return portSouth
	case msg.dy < 0:
		return portNorth
	default:
		return portLocal
	}
}

// serCycles is the link occupancy of one message.
func (m *Mesh[P]) serCycles(bytes int) sim.Cycle {
	if bytes < 1 {
		bytes = 1
	}
	return sim.Cycle((bytes + m.p.LinkBytes - 1) / m.p.LinkBytes)
}

// schedule puts msg on the wheel for cycle at (never before the current
// tick's cycle: latencies are not negative).
func (m *Mesh[P]) schedule(msg *Header[P], at sim.Cycle) {
	if at-m.wheelAt >= sim.Cycle(len(m.wheel)) {
		m.growWheel(at - m.wheelAt)
	}
	m.wheel[int(at)&(len(m.wheel)-1)].Push(msg, &msg.Link)
	m.pending++
}

// growWheel resizes the wheel to hold a delay of span cycles, moving
// each pending cycle's FIFO to its new slot.
func (m *Mesh[P]) growWheel(span sim.Cycle) {
	old := m.wheel
	m.wheel = make([]sim.List[*Header[P]], 1<<bits.Len64(uint64(span)))
	for i := range old {
		c := int(m.wheelAt) + i
		m.wheel[c&(len(m.wheel)-1)] = old[c&(len(old)-1)]
	}
}

// nextEvent reports the earliest cycle with an event on the wheel.
func (m *Mesh[P]) nextEvent() (sim.Cycle, bool) {
	if m.pending == 0 {
		return 0, false
	}
	c := m.wheelAt
	for m.wheel[int(c)&(len(m.wheel)-1)].Len() == 0 {
		c++
	}
	return c, true
}

// fireDue lands every link traversal and ejection due at or before now,
// in cycle order and, within a cycle, in the order they were scheduled.
func (m *Mesh[P]) fireDue(now sim.Cycle) {
	for c := m.wheelAt; c <= now && m.pending > 0; c++ {
		s := &m.wheel[int(c)&(len(m.wheel)-1)]
		for msg := s.Pop(); msg != nil; msg = s.Pop() {
			m.pending--
			if msg.out != portLocal {
				m.enqueue(msg)
				continue
			}
			m.stats.Delivered++
			m.stats.LatencySum += uint64(c - msg.born)
			m.Deliver(msg.Dst, msg, c)
		}
	}
	m.wheelAt = now
}

// Tick advances the mesh one cycle: link arrivals land first, then each
// router holding a message (ascending order) considers the head of each
// occupied input port (fixed order) and forwards or ejects at most one
// message per port. Nothing enters a queue during the walk, so the
// routers and ports it passes over are exactly those with no head to
// consider.
func (m *Mesh[P]) Tick(now sim.Cycle) {
	m.fireDue(now)
	for w, word := range m.occupied {
		for ; word != 0; word &= word - 1 {
			m.tickRouter(w*64+bits.TrailingZeros64(word), now)
		}
	}
	m.sched(now)
}

// tickRouter offers the head of each occupied input port of router r its
// output: the ejection stage, or the link if it is free and the router
// holds a credit for the buffer beyond it. A head that cannot move is
// decided from the router alone; only one that moves is loaded.
func (m *Mesh[P]) tickRouter(r int, now sim.Cycle) {
	rt := &m.routers[r]
	for ports := rt.ports; ports != 0; ports &= ports - 1 {
		pt := bits.TrailingZeros8(ports)
		out := int(rt.headOut[pt])
		if out == portLocal {
			m.schedule(m.dequeue(r, pt), now+m.p.RouterLatency)
			continue
		}
		if rt.outBusy[out] > now {
			m.stats.LinkStalls++
			continue
		}
		if rt.credits[out] == 0 {
			m.stats.CreditStalls++
			continue
		}
		msg := m.dequeue(r, pt)
		rt.credits[out]--
		rt.outBusy[out] = now + msg.ser
		msg.at += int32(m.step[out])
		msg.port = opposite[out]
		msg.dx -= hopX[out]
		msg.dy -= hopY[out]
		m.stats.Hops++
		m.stats.Flits += uint64(msg.ser)
		m.schedule(msg, now+m.p.RouterLatency+msg.ser+m.p.LinkLatency)
	}
}

// sched picks the sleep target after a tick: the next event if the
// queues are drained, the next cycle while any head can still move.
func (m *Mesh[P]) sched(now sim.Cycle) {
	if m.handle == nil {
		return
	}
	if m.queued > 0 {
		m.handle.SleepUntil(now + 1)
		return
	}
	wake := sim.FarFuture
	if c, ok := m.nextEvent(); ok {
		wake = c
	}
	m.handle.SleepUntil(wake)
}

// DigestWords folds the mesh counters into a run digest via emit.
func (m *Mesh[P]) DigestWords(emit func(...uint64)) {
	s := &m.stats
	emit(s.Injected, s.Rejected, s.Delivered, s.Hops, s.Flits,
		s.CreditStalls, s.LinkStalls, s.LatencySum)
}
