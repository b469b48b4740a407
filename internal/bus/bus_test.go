package bus

import (
	"testing"
	"testing/quick"

	"stackedsim/internal/sim"
)

func TestTransferCycles2DFSB(t *testing.T) {
	// 8-byte wide, divider 4, DDR: a 64-byte line is 8 beats at 2 CPU
	// cycles per beat = 16 CPU cycles.
	b := New(8, 4, true)
	if got := b.TransferCycles(64); got != 16 {
		t.Fatalf("2D FSB line transfer = %d cycles, want 16", got)
	}
}

func TestTransferCycles3D(t *testing.T) {
	// 8-byte wide at core clock: 8 beats = 8 cycles.
	b := New(8, 1, false)
	if got := b.TransferCycles(64); got != 8 {
		t.Fatalf("3D line transfer = %d cycles, want 8", got)
	}
}

func TestTransferCycles3DWide(t *testing.T) {
	// Full-line width at core clock: 1 cycle.
	b := New(64, 1, false)
	if got := b.TransferCycles(64); got != 1 {
		t.Fatalf("3D-wide line transfer = %d cycles, want 1", got)
	}
}

func TestTransferCyclesPartialBeatRoundsUp(t *testing.T) {
	b := New(8, 1, false)
	if got := b.TransferCycles(9); got != 2 {
		t.Fatalf("9-byte transfer = %d cycles, want 2", got)
	}
	if got := b.TransferCycles(0); got != 0 {
		t.Fatalf("0-byte transfer = %d cycles, want 0", got)
	}
}

func TestTransferCyclesMinimumOne(t *testing.T) {
	// DDR with divider 1 would give 0.5 -> must clamp to 1.
	b := New(64, 1, true)
	if got := b.TransferCycles(64); got != 1 {
		t.Fatalf("transfer = %d cycles, want 1 (clamped)", got)
	}
}

func TestReserveSerializes(t *testing.T) {
	b := New(8, 1, false) // 64B = 8 cycles
	s1, e1 := b.Reserve(100, 64)
	if s1 != 100 || e1 != 108 {
		t.Fatalf("first transfer = [%d,%d], want [100,108]", s1, e1)
	}
	s2, e2 := b.Reserve(102, 64) // arrives while busy
	if s2 != 108 || e2 != 116 {
		t.Fatalf("second transfer = [%d,%d], want [108,116]", s2, e2)
	}
	if b.Stats().WaitCycles != 6 {
		t.Fatalf("WaitCycles = %d, want 6", b.Stats().WaitCycles)
	}
	if b.Stats().BusyCycles != 16 {
		t.Fatalf("stats = %+v", *b.Stats())
	}
}

func TestReserveIdleBusNoWait(t *testing.T) {
	b := New(8, 1, false)
	b.Reserve(0, 64) // ends at 8
	s, _ := b.Reserve(50, 64)
	if s != 50 {
		t.Fatalf("idle bus start = %d, want 50", s)
	}
	if b.Stats().WaitCycles != 0 {
		t.Fatalf("WaitCycles = %d, want 0", b.Stats().WaitCycles)
	}
}

func TestReserveZeroBytes(t *testing.T) {
	b := New(8, 1, false)
	s, e := b.Reserve(10, 0)
	if s != 10 || e != 10 {
		t.Fatalf("zero transfer = [%d,%d], want [10,10]", s, e)
	}
	if st := b.Stats(); st.Bytes != 0 || st.BusyCycles != 0 {
		t.Fatalf("zero transfer counted: %+v", *st)
	}
}

func TestUtilization(t *testing.T) {
	b := New(8, 1, false)
	b.Reserve(0, 64)
	if got := b.Utilization(16); got != 0.5 {
		t.Fatalf("Utilization = %v, want 0.5", got)
	}
	if b.Utilization(0) != 0 {
		t.Fatal("Utilization(0) should be 0")
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct{ w, d int }{{0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.w, tc.d)
				}
			}()
			New(tc.w, tc.d, false)
		}()
	}
}

// Property: reservations never overlap and never start before requested.
func TestReserveNoOverlapProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		b := New(8, 2, false)
		now := sim.Cycle(0)
		var prevEnd sim.Cycle
		for _, g := range gaps {
			now += sim.Cycle(g % 16)
			s, e := b.Reserve(now, 64)
			if s < now || s < prevEnd || e <= s {
				return false
			}
			prevEnd = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A wider bus must never be slower for the same payload.
func TestWiderNeverSlowerProperty(t *testing.T) {
	f := func(nRaw uint16) bool {
		n := int(nRaw%4096) + 1
		narrow := New(8, 1, false)
		wide := New(64, 1, false)
		return wide.TransferCycles(n) <= narrow.TransferCycles(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
