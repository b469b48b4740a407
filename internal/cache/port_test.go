package cache

import (
	"slices"
	"testing"

	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// scriptPort is a Port that accepts while room lasts and records what it
// was offered, in order, accepted or not.
type scriptPort struct {
	room    int
	offered []uint64
	taken   []uint64
}

func (p *scriptPort) Submit(r *mem.Request, _ sim.Cycle) bool {
	p.offered = append(p.offered, r.ID)
	if p.room == 0 {
		return false
	}
	p.room--
	p.taken = append(p.taken, r.ID)
	return true
}

// TestOutbox pins the one refusal-and-retry rule every sender toward a
// Port shares.
func TestOutbox(t *testing.T) {
	reqs := make([]*mem.Request, 6)
	for i := range reqs {
		reqs[i] = &mem.Request{ID: uint64(i)}
	}
	type step struct {
		name  string
		room  int   // what the port accepts during this step
		send  []int // requests Sent, in order (nil: the step is a Retry)
		taken []uint64
		tried []uint64
		qlen  int
		woken bool // the owner is awake after the step
	}
	steps := []step{
		{name: "an accepted Send queues nothing and wakes nobody",
			room: 1, send: []int{0}, taken: []uint64{0}, tried: []uint64{0}},
		{name: "a refused Send queues and wakes",
			send: []int{1, 2}, tried: []uint64{1, 2}, qlen: 2, woken: true},
		// Digest-bearing: every sender in the hierarchy offered a fresh
		// request to the port at once even with refused ones waiting, so
		// 3 overtakes 1 and 2. Queueing it behind them would move the
		// cycle its submission lands on, and with it every golden digest.
		{name: "a Send while others are queued is offered first",
			room: 1, send: []int{3}, taken: []uint64{3}, tried: []uint64{3}, qlen: 2},
		{name: "a refused head is the only one tried",
			tried: []uint64{1}, qlen: 2},
		{name: "Retry stops at the first refusal and keeps order",
			room: 1, taken: []uint64{1}, tried: []uint64{1, 2}, qlen: 1},
		{name: "Len counts only the queued",
			room: 1, send: []int{4, 5}, taken: []uint64{4}, tried: []uint64{4, 5}, qlen: 2, woken: true},
		{name: "Retry drains in the order refused",
			room: 5, taken: []uint64{2, 5}, tried: []uint64{2, 5}},
		{name: "Retry of an empty outbox offers nothing"},
	}
	eng := sim.NewEngine()
	ticks := 0
	owner := eng.RegisterEvery(1, 0, sim.TickFunc(func(sim.Cycle) { ticks++ }))
	port := &scriptPort{}
	out := NewOutbox(port)
	out.SetOwner(owner)
	for _, st := range steps {
		port.room, port.offered, port.taken = st.room, nil, nil
		owner.SleepUntil(sim.FarFuture)
		if st.send == nil {
			out.Retry(eng.Now())
		}
		for _, i := range st.send {
			out.Send(reqs[i], eng.Now())
		}
		if !slices.Equal(port.taken, st.taken) || !slices.Equal(port.offered, st.tried) {
			t.Errorf("%s: port took %v of offered %v, want %v of %v", st.name, port.taken, port.offered, st.taken, st.tried)
		}
		if out.Len() != st.qlen {
			t.Errorf("%s: Len() = %d, want %d", st.name, out.Len(), st.qlen)
		}
		before := ticks
		eng.Step()
		if woken := ticks > before; woken != st.woken {
			t.Errorf("%s: owner ticked next cycle = %v, want %v", st.name, woken, st.woken)
		}
	}
}

// TestOutboxSteadyStateDoesNotAllocate: an outbox that fills against a
// refusing port and drains when it accepts reuses one ring. The stack
// layer's slices it replaces were drained with q = q[1:]: every drain
// walked off the backing array and the next refusals grew a new one.
func TestOutboxSteadyStateDoesNotAllocate(t *testing.T) {
	port := &refusingPort{}
	out := NewOutbox(port)
	reqs := make([]*mem.Request, 48)
	for i := range reqs {
		reqs[i] = &mem.Request{ID: uint64(i)}
	}
	cycles := 0
	cycle := func() {
		cycles++
		port.accept = false
		for _, r := range reqs {
			out.Send(r, 0)
		}
		out.Retry(1) // blocked: the head is refused again
		port.accept = true
		out.Retry(2)
	}
	cycle() // reach the working depth
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("%v allocations per fill-and-drain in steady state", allocs)
	}
	if out.Len() != 0 || port.n != cycles*len(reqs) {
		t.Fatalf("%d left queued, %d accepted of %d sent", out.Len(), port.n, cycles*len(reqs))
	}
}

type refusingPort struct {
	accept bool
	n      int
}

func (p *refusingPort) Submit(*mem.Request, sim.Cycle) bool {
	if p.accept {
		p.n++
	}
	return p.accept
}
