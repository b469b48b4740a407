package dram

import (
	"testing"
	"testing/quick"

	"stackedsim/internal/config"
	"stackedsim/internal/sim"
)

// tm returns a convenient round-number timing for tests.
func tm() Timing {
	return Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
}

func TestTimingInCycles(t *testing.T) {
	got := TimingInCycles(config.Timing2D(), 1000) // 1 GHz: 1 cycle per ns
	if got.RAS != 36 || got.RCD != 12 || got.CAS != 12 || got.WR != 12 || got.RP != 12 {
		t.Fatalf("timing = %+v", got)
	}
	if got.RFC != 48 { // tRAS + tRP
		t.Fatalf("RFC = %d, want 48", got.RFC)
	}
	// True-3D timing must be strictly faster everywhere.
	fast := TimingInCycles(config.TimingTrue3D(), 1000)
	if fast.RAS >= got.RAS || fast.CAS >= got.CAS || fast.RP >= got.RP {
		t.Fatalf("true-3D timing not faster: %+v vs %+v", fast, got)
	}
}

func TestBankFirstAccessIsActivate(t *testing.T) {
	b := NewBank(tm(), 1)
	dataAt, hit := b.Access(100, 7, false)
	if hit {
		t.Fatal("first access reported a row hit")
	}
	// Idle bank: no precharge needed. tRCD + tCAS = 20.
	if dataAt != 120 {
		t.Fatalf("dataAt = %d, want 120", dataAt)
	}
	if b.Ready(dataAt - 1) {
		t.Fatal("bank ready while busy")
	}
	if !b.Ready(dataAt) {
		t.Fatal("bank not ready at dataAt")
	}
}

func TestBankRowHit(t *testing.T) {
	b := NewBank(tm(), 1)
	dataAt, _ := b.Access(0, 7, false)
	dataAt2, hit := b.Access(dataAt, 7, false)
	if !hit {
		t.Fatal("second access to same row missed")
	}
	if dataAt2 != dataAt+10 { // tCAS only
		t.Fatalf("row hit dataAt = %d, want %d", dataAt2, dataAt+10)
	}
	if b.Stats().RowHits != 1 || b.Stats().Activates != 1 {
		t.Fatalf("stats = %+v", *b.Stats())
	}
}

func TestBankConflictPaysPrechargeAndRAS(t *testing.T) {
	b := NewBank(tm(), 1)
	dataAt, _ := b.Access(0, 7, false) // activate at 0, data at 20
	// Different row while entry is occupied: precharge + activate.
	// tRAS (30) since activation at cycle 0 gates the precharge: the
	// precharge cannot start before cycle 30.
	dataAt2, hit := b.Access(dataAt, 8, false)
	if hit {
		t.Fatal("conflict reported as hit")
	}
	// precharge start = max(20, 0+30) = 30; +tRP(10) = 40; +tRCD+tCAS = 60.
	if dataAt2 != 60 {
		t.Fatalf("conflict dataAt = %d, want 60", dataAt2)
	}
	// Row 8 displaced row 7 from the one-entry row buffer.
	if b.HasRow(7) || !b.HasRow(8) {
		t.Fatal("the conflict did not displace row 7 with row 8")
	}
}

func TestBankDirtyEvictionPaysWriteRecovery(t *testing.T) {
	b := NewBank(tm(), 1)
	dataAt, _ := b.Access(0, 7, true) // write: entry dirty
	dataAt2, _ := b.Access(dataAt+30, 8, false)
	// start=50; dirty adds tWR: 60; tRAS satisfied (act at 0); +tRP=70;
	// +tRCD+tCAS = 90.
	if dataAt2 != 90 {
		t.Fatalf("dirty-eviction dataAt = %d, want 90", dataAt2)
	}
}

func TestBankRowBufferCacheLRU(t *testing.T) {
	b := NewBank(tm(), 2)
	at, _ := b.Access(0, 1, false)
	at, _ = b.Access(at, 2, false) // second entry, no eviction yet
	if !b.HasRow(1) || !b.HasRow(2) {
		t.Fatal("rows not cached: an eviction with free row-buffer entries")
	}
	// Touch row 1 so row 2 becomes LRU, then bring row 3 in: row 2 must
	// be evicted.
	at, hit := b.Access(at, 1, false)
	if !hit {
		t.Fatal("cached row 1 missed")
	}
	at, _ = b.Access(at, 3, false)
	if b.HasRow(2) {
		t.Fatal("LRU row 2 not evicted")
	}
	if !b.HasRow(1) || !b.HasRow(3) {
		t.Fatal("wrong rows evicted")
	}
	if b.OpenRows() != 2 {
		t.Fatalf("OpenRows = %d, want 2", b.OpenRows())
	}
	_ = at
}

func TestBankMoreRowBufEntriesRaiseHitRate(t *testing.T) {
	run := func(entries int) uint64 {
		b := NewBank(tm(), entries)
		now := sim.Cycle(0)
		// Cycle over 3 rows repeatedly.
		for i := 0; i < 30; i++ {
			at, _ := b.Access(now, int64(i%3), false)
			now = at
		}
		return b.Stats().RowHits
	}
	if h1, h4 := run(1), run(4); h4 <= h1 {
		t.Fatalf("4-entry hits (%d) not above 1-entry hits (%d)", h4, h1)
	}
}

func TestBankAccessWhileBusyPanics(t *testing.T) {
	b := NewBank(tm(), 1)
	b.Access(0, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Access while busy did not panic")
		}
	}()
	b.Access(5, 2, false)
}

func TestBankRefreshInvalidatesAndBlocks(t *testing.T) {
	b := NewBank(tm(), 2)
	at, _ := b.Access(0, 7, false)
	b.Refresh(at)
	if b.HasRow(7) {
		t.Fatal("row survived refresh")
	}
	if b.BusyUntil() != at+40 { // tRFC
		t.Fatalf("BusyUntil = %d, want %d", b.BusyUntil(), at+40)
	}
	if b.Stats().Refreshes != 1 {
		t.Fatal("refresh not counted")
	}
}

func TestBankRefreshWaitsForBusy(t *testing.T) {
	b := NewBank(tm(), 1)
	dataAt, _ := b.Access(0, 7, false) // busy until 20
	b.Refresh(5)
	if b.BusyUntil() != dataAt+40 {
		t.Fatalf("refresh start did not wait: BusyUntil = %d, want %d", b.BusyUntil(), dataAt+40)
	}
}

func TestNewBankPanicsOnZeroEntries(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBank(0 entries) did not panic")
		}
	}()
	NewBank(tm(), 0)
}

func TestRankRefreshCadence(t *testing.T) {
	// 64ms at 1 GHz = 64e6 ns -> tREFI = 64e6/8192 = 7812.5 -> 7813.
	r := NewRank(tm(), 2, 1, 64, 1000)
	if r.RefreshInterval() != 7813 {
		t.Fatalf("tREFI = %d, want 7813", r.RefreshInterval())
	}
	for now := sim.Cycle(1); now <= 7813*3; now++ {
		r.Tick(now)
	}
	for _, b := range r.Banks {
		if b.Stats().Refreshes != 3 {
			t.Fatalf("bank refreshes = %d, want 3", b.Stats().Refreshes)
		}
	}
}

func TestRankHalvedRetentionDoublesRefreshes(t *testing.T) {
	r64 := NewRank(tm(), 1, 1, 64, 1000)
	r32 := NewRank(tm(), 1, 1, 32, 1000)
	end := r64.RefreshInterval() * 8
	for now := sim.Cycle(1); now <= end; now++ {
		r64.Tick(now)
		r32.Tick(now)
	}
	got, want := r32.Banks[0].Stats().Refreshes, 2*r64.Banks[0].Stats().Refreshes
	// tREFI rounding can shave one command off the window.
	if got != want && got != want-1 {
		t.Fatalf("32ms refreshes = %d, want %d or %d", got, want, want-1)
	}
}

func TestRankNoRefreshWhenDisabled(t *testing.T) {
	r := NewRank(tm(), 1, 1, 0, 1000)
	for now := sim.Cycle(1); now < 100000; now++ {
		r.Tick(now)
	}
	if r.Banks[0].Stats().Refreshes != 0 {
		t.Fatal("disabled refresh still fired")
	}
}

func TestNewRankPanicsOnZeroBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRank(0 banks) did not panic")
		}
	}()
	NewRank(tm(), 0, 1, 64, 1000)
}

// TestBankTimingMonotoneProperty: for any access sequence, data-ready
// times strictly increase and the bank is never double-booked.
func TestBankTimingMonotoneProperty(t *testing.T) {
	f := func(rows []uint8, writes []bool) bool {
		b := NewBank(tm(), 2)
		now := sim.Cycle(0)
		prev := sim.Cycle(-1)
		for i, r := range rows {
			w := i < len(writes) && writes[i]
			dataAt, _ := b.Access(now, int64(r%8), w)
			if dataAt <= prev || dataAt < now {
				return false
			}
			prev = dataAt
			now = dataAt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBankHitFasterThanMissProperty: a row-buffer hit is always at least
// as fast as any miss path.
func TestBankHitFasterThanMissProperty(t *testing.T) {
	b := NewBank(tm(), 1)
	at, _ := b.Access(0, 1, false)
	hitAt, _ := b.Access(at, 1, false)
	hitLat := hitAt - at
	missB := NewBank(tm(), 1)
	at2, _ := missB.Access(0, 1, false)
	missAt, _ := missB.Access(at2, 2, false)
	missLat := missAt - at2
	if hitLat >= missLat {
		t.Fatalf("hit latency %d not below miss latency %d", hitLat, missLat)
	}
}
