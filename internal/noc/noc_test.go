package noc

import (
	"fmt"
	"testing"
	"unsafe"

	"stackedsim/internal/sim"
)

func drive[P any](m *Mesh[P], cycles int) {
	for c := sim.Cycle(0); c < sim.Cycle(cycles); c++ {
		m.Tick(c)
	}
}

// TestXYRoutingLatency pins the corner-to-corner latency of a 4x4 mesh
// analytically: six hops of (router + serialization + link) plus the
// final ejection stage.
func TestXYRoutingLatency(t *testing.T) {
	m := NewOf[string](Params{W: 4, H: 4, LinkBytes: 16, LinkLatency: 1, RouterLatency: 1, BufPkts: 4})
	var deliveredAt sim.Cycle
	var got int
	m.Deliver = func(dst int, msg *Header[string], now sim.Cycle) {
		got++
		deliveredAt = now
		if dst != 15 || msg.Body != "p" {
			t.Errorf("delivered dst=%d body=%v", dst, msg.Body)
		}
	}
	if !m.Send(0, 15, 8, &Header[string]{Body: "p"}, 0) {
		t.Fatal("send rejected on empty mesh")
	}
	drive(m, 40)
	if got != 1 {
		t.Fatalf("delivered %d messages, want 1", got)
	}
	// Hop n is forwarded at cycle 3n and lands at 3(n+1); the sixth hop
	// lands at 18, and ejection adds RouterLatency: delivered at 19.
	if deliveredAt != 19 {
		t.Errorf("delivered at %d, want 19", deliveredAt)
	}
	if m.Stats().Hops != 6 {
		t.Errorf("hops = %d, want 6 (XY route)", m.Stats().Hops)
	}
	if m.InFlight() != 0 {
		t.Errorf("in flight after drain: %d", m.InFlight())
	}
}

// TestSerializationWideMessage checks that a message wider than the
// link occupies it for multiple cycles (flits > hops).
func TestSerializationWideMessage(t *testing.T) {
	m := New(Params{W: 2, H: 1, LinkBytes: 16, LinkLatency: 1, RouterLatency: 1, BufPkts: 4})
	m.Deliver = func(int, *Msg, sim.Cycle) {}
	m.Send(0, 1, 72, nil, 0) // ceil(72/16) = 5 link cycles
	drive(m, 20)
	if m.Stats().Flits != 5 {
		t.Errorf("flits = %d, want 5", m.Stats().Flits)
	}
	if m.Stats().Hops != 1 {
		t.Errorf("hops = %d, want 1", m.Stats().Hops)
	}
}

// TestCreditBackpressure fills a single-slot downstream buffer and
// checks the head stalls in place (credit stall), nothing is dropped,
// and Send itself refuses when the local buffer is out of credits.
func TestCreditBackpressure(t *testing.T) {
	m := New(Params{W: 2, H: 1, LinkBytes: 16, LinkLatency: 5, RouterLatency: 1, BufPkts: 1})
	delivered := 0
	m.Deliver = func(int, *Msg, sim.Cycle) { delivered++ }
	if !m.Send(0, 1, 8, nil, 0) {
		t.Fatal("first send rejected")
	}
	if m.Send(0, 1, 8, nil, 0) {
		t.Fatal("second send accepted with a full local buffer")
	}
	if m.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.Stats().Rejected)
	}
	m.Tick(0) // forwards msg 1; downstream slot now reserved until arrival
	if !m.Send(0, 1, 8, nil, 1) {
		t.Fatal("send after local buffer drained rejected")
	}
	drive2 := func(from, to int) {
		for c := from; c < to; c++ {
			m.Tick(sim.Cycle(c))
		}
	}
	drive2(1, 40)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (no drops under backpressure)", delivered)
	}
	if m.Stats().CreditStalls == 0 {
		t.Error("expected credit stalls with BufPkts=1 and a slow link")
	}
	if m.InFlight() != 0 {
		t.Errorf("in flight after drain: %d", m.InFlight())
	}
}

// TestDeterministicReplay runs the same synthetic traffic twice and
// requires identical delivery logs and counters.
func TestDeterministicReplay(t *testing.T) {
	run := func() (string, Stats) {
		m := New(Params{W: 4, H: 4, LinkBytes: 16, LinkLatency: 1, RouterLatency: 2, BufPkts: 2})
		log := ""
		m.Deliver = func(dst int, msg *Msg, now sim.Cycle) {
			log += fmt.Sprintf("%d<-%d@%d;", dst, msg.Src, now)
		}
		seed := uint64(0x9e3779b97f4a7c15)
		for c := sim.Cycle(0); c < 400; c++ {
			if c < 120 {
				seed = seed*6364136223846793005 + 1442695040888963407
				src := int(seed>>33) % 16
				dst := int(seed>>17) % 16
				m.Send(src, dst, int(8+(seed>>5)%64), nil, c)
			}
			m.Tick(c)
		}
		return log, *m.Stats()
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Fatalf("non-deterministic mesh:\n%v\n%v\nstats %+v vs %+v", l1, l2, s1, s2)
	}
	if s1.Delivered == 0 {
		t.Fatal("no traffic delivered")
	}
	if s1.Injected != s1.Delivered {
		t.Fatalf("messages lost: injected %d delivered %d", s1.Injected, s1.Delivered)
	}
}

// TestEngineSleepWake registers the mesh on the event-driven engine and
// checks an idle mesh lets the engine skip cycles while traffic still
// arrives exactly when it should.
func TestEngineSleepWake(t *testing.T) {
	eng := sim.NewEngine()
	m := New(Params{W: 2, H: 2, LinkBytes: 16, LinkLatency: 1, RouterLatency: 1, BufPkts: 4})
	h := eng.RegisterEvery(1, 0, sim.TickFunc(m.Tick))
	m.SetHandle(h)
	delivered := 0
	m.Deliver = func(dst int, msg *Msg, now sim.Cycle) { delivered++ }
	eng.Schedule(500, func() { m.Send(0, 3, 8, nil, 500) })
	eng.Run(1000)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if eng.CyclesSkipped() == 0 {
		t.Error("idle mesh should let the engine skip cycles")
	}
}

// TestMessageInTheMeshCannotBeSentAgain: a message waits in one input
// port or wheel slot at a time, through the one link its header holds.
// Sending it again while it waits in its port or crosses a link panics,
// and so does scheduling it onto the wheel while a port holds it.
func TestMessageInTheMeshCannotBeSentAgain(t *testing.T) {
	m := New(Params{W: 2, H: 1, LinkBytes: 16, LinkLatency: 1, RouterLatency: 1, BufPkts: 4})
	m.Deliver = func(int, *Msg, sim.Cycle) {}
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	waiting := new(Msg)
	m.Send(0, 1, 8, waiting, 0)
	panics("a second Send of a message in its port", func() { m.Send(0, 1, 8, waiting, 0) })
	panics("scheduling a message in its port", func() { m.schedule(waiting, 1) })

	crossing := new(Msg)
	m.Send(0, 1, 8, crossing, 1)
	m.Tick(1) // onto the link, on the wheel
	if m.pending != 1 {
		t.Fatalf("%d messages on the wheel after a tick, want 1", m.pending)
	}
	panics("a second Send of a message crossing a link", func() { m.Send(0, 1, 8, crossing, 1) })
}

// TestHopFieldsFitOneLine: everything a hop reads and writes — the link
// and the route state — lies in a header's first 64 bytes.
func TestHopFieldsFitOneLine(t *testing.T) {
	var h Msg
	if end := unsafe.Offsetof(h.ser) + unsafe.Sizeof(h.ser); end > 64 {
		t.Fatalf("a hop's fields end %d bytes into the header, want at most 64", end)
	}
}
