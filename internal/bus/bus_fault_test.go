package bus

import (
	"testing"

	"stackedsim/internal/fault"
	"stackedsim/internal/sim"
)

func busView(t *testing.T, specs ...fault.Spec) (*fault.Injector, *fault.MCView) {
	t.Helper()
	in, err := fault.NewInjector(&fault.Scenario{Faults: specs}, 1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	return in, in.MC(0)
}

func TestDegradedLinkStretchesTransfers(t *testing.T) {
	in, v := busView(t, fault.Spec{Kind: fault.KindTSVDegraded, MC: 0, From: 0, Until: 1000})
	b := New(8, 1, false) // 64B = 8 cycles at full width
	b.SetFaults(v)
	if got := b.TransferCyclesAt(10, 64); got != 16 {
		t.Fatalf("degraded TransferCyclesAt = %d, want 16 (factor 2)", got)
	}
	if got := b.TransferCyclesAt(2000, 64); got != 8 {
		t.Fatalf("post-window TransferCyclesAt = %d, want 8", got)
	}
	start, end := b.Reserve(100, 64)
	if start != 100 || end != 116 {
		t.Fatalf("degraded transfer = [%d,%d], want [100,116]", start, end)
	}
	if st := in.Stats(); st.LinkDegradedTransfers != 1 {
		t.Fatalf("degraded transfers = %d, want 1", st.LinkDegradedTransfers)
	}
	// The stretched occupancy counts as busy cycles (the wires really
	// are driven twice as long).
	if b.Stats().BusyCycles != 16 {
		t.Fatalf("busy cycles = %d, want 16", b.Stats().BusyCycles)
	}
}

func TestDeadLinkPushesBurstsOut(t *testing.T) {
	in, v := busView(t, fault.Spec{Kind: fault.KindTSVDead, MC: 0, From: 100, Until: 150})
	b := New(8, 1, false)
	b.SetFaults(v)
	start, end := b.Reserve(110, 64)
	if start != 150 || end != 158 {
		t.Fatalf("burst through dead window = [%d,%d], want [150,158]", start, end)
	}
	if st := in.Stats(); st.LinkDeadWaitCycles != 40 {
		t.Fatalf("dead wait = %d, want 40", st.LinkDeadWaitCycles)
	}
	// Contention queueing still applies before the fault delay.
	start2, _ := b.Reserve(100, 64)
	if start2 != 158 {
		t.Fatalf("queued burst starts at %d, want 158 (behind the first)", start2)
	}
}

func TestFaultFreeBusUnchanged(t *testing.T) {
	// A bus with a view armed outside its windows behaves exactly like
	// an unfaulted one.
	_, v := busView(t, fault.Spec{Kind: fault.KindTSVDead, MC: 0, From: 10_000, Until: 10_100})
	plain, faulty := New(8, 4, true), New(8, 4, true)
	faulty.SetFaults(v)
	for i := 0; i < 50; i++ {
		now := sim.Cycle(i * 3)
		s1, e1 := plain.Reserve(now, 64)
		s2, e2 := faulty.Reserve(now, 64)
		if s1 != s2 || e1 != e2 {
			t.Fatalf("reserve %d diverged: [%d,%d] vs [%d,%d]", i, s1, e1, s2, e2)
		}
	}
	if plain.Stats().BusyCycles != faulty.Stats().BusyCycles {
		t.Fatal("stats diverged outside fault windows")
	}
}
