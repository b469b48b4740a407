package noc

import (
	"fmt"
	"testing"

	"stackedsim/internal/sim"
)

// traceSend is one message of the golden traffic: the header it crosses
// the mesh by, and its place in a source's retry queue while the
// injection port refuses it.
type traceSend struct {
	Header[*traceSend]
	dst, bytes int
	seq        uint64
}

// traceGen is a deterministic traffic source for the delivery-trace
// golden: bursts of random 8- and 72-byte messages, an eighth of them
// aimed at node 0 (the hot spot a directory bank is), each source
// retrying a refused Send in order before it offers anything newer —
// the discipline the coherence endpoints follow.
type traceGen struct {
	m       *Mesh[*traceSend]
	nodes   int
	perTick int
	until   sim.Cycle // no new traffic from this cycle on
	lcg     uint64
	seq     uint64
	pending [][]*traceSend
	queued  int
	handle  *sim.TickHandle
	hash    uint64
}

const (
	traceBurst = 96 // cycles of traffic, then as many of silence
	fnvOffset  = 14695981039346656037
	fnvPrime   = 1099511628211
)

func newTraceGen(m *Mesh[*traceSend], perTick int, until sim.Cycle) *traceGen {
	g := &traceGen{m: m, nodes: m.Nodes(), perTick: perTick, until: until,
		lcg: 0x9e3779b97f4a7c15, pending: make([][]*traceSend, m.Nodes()), hash: fnvOffset}
	m.Deliver = func(dst int, msg *Header[*traceSend], now sim.Cycle) {
		g.fold(uint64(now), uint64(msg.Src), uint64(dst), msg.Body.seq)
	}
	return g
}

func (g *traceGen) fold(words ...uint64) {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			g.hash = (g.hash ^ (w & 0xff)) * fnvPrime
			w >>= 8
		}
	}
}

func (g *traceGen) next() uint64 {
	g.lcg = g.lcg*6364136223846793005 + 1442695040888963407
	return g.lcg >> 24
}

func (g *traceGen) bursting(now sim.Cycle) bool {
	return now < g.until && (now/traceBurst)%2 == 0
}

func (g *traceGen) Tick(now sim.Cycle) {
	for src := 0; src < g.nodes && g.queued > 0; src++ {
		q := g.pending[src]
		for len(q) > 0 && g.m.Send(src, q[0].dst, q[0].bytes, &q[0].Header, now) {
			q = q[1:]
			g.queued--
		}
		g.pending[src] = q
	}
	if g.bursting(now) {
		for i := 0; i < g.perTick; i++ {
			r := g.next()
			s := &traceSend{dst: int(r>>8) % g.nodes, bytes: 8, seq: g.seq}
			s.Body = s
			src := int(r>>20) % g.nodes
			if r&7 == 0 {
				s.dst = 0
			}
			if r&8 != 0 {
				s.bytes = 72
			}
			g.seq++
			if len(g.pending[src]) > 0 || !g.m.Send(src, s.dst, s.bytes, &s.Header, now) {
				g.pending[src] = append(g.pending[src], s)
				g.queued++
			}
		}
	}
	if g.handle == nil {
		return
	}
	switch {
	case g.queued > 0 || g.bursting(now+1):
		g.handle.SleepUntil(now + 1)
	case now < g.until:
		g.handle.SleepUntil((now/traceBurst + 1) * traceBurst)
	default:
		g.handle.SleepUntil(sim.FarFuture)
	}
}

// TestMeshDeliveryTraceGolden pins what the mesh does to a fixed stream
// of traffic — every delivery as (cycle, src, dst, sequence) and all
// eight counters — to the hash the heap-and-full-scan mesh produced, on
// two mesh sizes and from starved to roomy buffers, ticked every cycle
// and through an engine that lets both the source and the mesh sleep.
// The zero-latency rows pin what config.Validate forbids but New
// accepts: a zero-stage router ejects (and a zero-length wire lands) on
// the tick after the one that scheduled it, ahead of that tick's own
// events.
func TestMeshDeliveryTraceGolden(t *testing.T) {
	const cycles, trafficUntil = 6000, 2000
	for _, g := range []struct {
		dim, buf, perTick int
		router, link      sim.Cycle
		hash              uint64
		delivered         uint64
	}{
		{4, 1, 2, 2, 1, 0x099b88f655280d5d, 2078},
		{4, 2, 2, 2, 1, 0x4418ba7a8da454a5, 2078},
		{4, 8, 2, 2, 1, 0xae096740c5fc4962, 2078},
		{8, 1, 4, 2, 1, 0x717d3e962132363b, 4156},
		{8, 2, 4, 2, 1, 0x4bffed6b1145866d, 4156},
		{8, 8, 4, 2, 1, 0xc17d53661d48e30e, 4156},
		{4, 2, 2, 0, 1, 0x33c8e4ebaa9c2cf7, 2078},
		{4, 2, 2, 1, 0, 0x03d90acd02583536, 2078},
		{4, 2, 2, 0, 0, 0xd8aad50d3a944d69, 2078},
	} {
		p := Params{W: g.dim, H: g.dim, LinkBytes: 16, LinkLatency: g.link, RouterLatency: g.router, BufPkts: g.buf}
		for _, driver := range []string{"every-cycle", "engine"} {
			t.Run(fmt.Sprintf("%dx%d/buf%d/lat%d+%d/%s", g.dim, g.dim, g.buf, g.router, g.link, driver), func(t *testing.T) {
				m := NewOf[*traceSend](p)
				gen := newTraceGen(m, g.perTick, trafficUntil)
				if driver == "engine" {
					eng := sim.NewEngine()
					gen.handle = eng.RegisterEvery(1, 0, gen)
					m.SetHandle(eng.RegisterEvery(1, 0, sim.TickFunc(m.Tick)))
					eng.Run(cycles)
					if eng.CyclesSkipped() == 0 {
						t.Error("the engine skipped nothing: the sleep/wake path went unexercised")
					}
				} else {
					for c := sim.Cycle(1); c <= cycles; c++ {
						gen.Tick(c)
						m.Tick(c)
					}
				}
				s := m.Stats()
				if m.InFlight() != 0 || m.OccupiedRouters() != 0 || m.CreditsOutstanding() != 0 || s.Injected != s.Delivered || s.Injected != gen.seq {
					t.Errorf("not drained: %d in flight, %d routers occupied, %d credits outstanding, %d offered, %d injected, %d delivered",
						m.InFlight(), m.OccupiedRouters(), m.CreditsOutstanding(), gen.seq, s.Injected, s.Delivered)
				}
				gen.fold(s.Injected, s.Rejected, s.Delivered, s.Hops, s.Flits, s.CreditStalls, s.LinkStalls, s.LatencySum)
				if gen.hash != g.hash || s.Delivered != g.delivered {
					t.Errorf("trace hash %#016x after %d deliveries (%d credit stalls, %d rejected), golden %#016x after %d",
						gen.hash, s.Delivered, s.CreditStalls, s.Rejected, g.hash, g.delivered)
				}
			})
		}
	}
}

// TestWheelGrowsForALongMessage sends a message whose serialization
// outlasts the wheel the mesh was built with, while shorter traffic is
// already on it: everything must land on the cycle the event heap
// landed it.
func TestWheelGrowsForALongMessage(t *testing.T) {
	m := NewOf[string](Params{W: 3, H: 1, LinkBytes: 1, LinkLatency: 1, RouterLatency: 1, BufPkts: 4})
	if len(m.wheel) > 8 {
		t.Fatalf("the mesh starts with a %d-slot wheel; the test means to outgrow it", len(m.wheel))
	}
	log := ""
	m.Deliver = func(dst int, msg *Header[string], now sim.Cycle) {
		log += fmt.Sprintf("%v:%d->%d@%d ", msg.Body, msg.Src, dst, now)
	}
	m.Send(0, 2, 2, &Header[string]{Body: "short"}, 0)
	m.Send(1, 2, 1, &Header[string]{Body: "near"}, 0)
	m.Send(0, 2, 100, &Header[string]{Body: "long"}, 0)
	m.Send(0, 1, 3, &Header[string]{Body: "behind"}, 0)
	for c := sim.Cycle(0); c < 400; c++ {
		m.Tick(c)
	}
	const want = "near:1->2@4 short:0->2@9 behind:0->1@108 long:0->2@207 "
	if log != want {
		t.Errorf("deliveries %q, want %q", log, want)
	}
	if len(m.wheel) <= 100 || m.InFlight() != 0 {
		t.Errorf("wheel of %d slots after a 102-cycle hop, %d in flight", len(m.wheel), m.InFlight())
	}
}

// TestNegativeLatencyPanics: a latency below zero would schedule into
// the past, where the wheel has no slot.
func TestNegativeLatencyPanics(t *testing.T) {
	for _, p := range []Params{
		{W: 2, H: 2, LinkBytes: 16, LinkLatency: -1, RouterLatency: 1, BufPkts: 2},
		{W: 2, H: 2, LinkBytes: 16, LinkLatency: 1, RouterLatency: -1, BufPkts: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", p)
				}
			}()
			New(p)
		}()
	}
}

// BenchmarkMeshSaturated ticks an 8x8 mesh kept short of credits by the
// golden traffic at twice its rate: the router walk, the wheel and the
// port queues, with no endpoint behind them.
func BenchmarkMeshSaturated(b *testing.B) {
	m := NewOf[*traceSend](Params{W: 8, H: 8, LinkBytes: 16, LinkLatency: 1, RouterLatency: 2, BufPkts: 8})
	gen := newTraceGen(m, 8, sim.FarFuture)
	c := sim.Cycle(0)
	for ; c < 2*traceBurst; c++ { // reach the working depth
		gen.Tick(c)
		m.Tick(c)
	}
	b.ReportAllocs()
	for b.Loop() {
		gen.Tick(c)
		m.Tick(c)
		c++
	}
	b.ReportMetric(float64(m.Stats().Delivered)/float64(c), "msgs/cycle")
}
