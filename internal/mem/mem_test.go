package mem

import (
	"testing"
	"testing/quick"

	"stackedsim/internal/sim"
)

func defaultMap() AddrMap {
	return AddrMap{LineBytes: 64, PageBytes: 4096, MCs: 2, RanksPerMC: 4, Banks: 8}
}

func TestAddrMapValidate(t *testing.T) {
	if err := defaultMap().Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	bad := []AddrMap{
		{LineBytes: 0, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 1},
		{LineBytes: 63, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 1},
		{LineBytes: 64, PageBytes: 0, MCs: 1, RanksPerMC: 1, Banks: 1},
		{LineBytes: 64, PageBytes: 32, MCs: 1, RanksPerMC: 1, Banks: 1},
		{LineBytes: 64, PageBytes: 4096, MCs: 0, RanksPerMC: 1, Banks: 1},
		{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 0, Banks: 1},
		{LineBytes: 64, PageBytes: 4096, MCs: 1, RanksPerMC: 1, Banks: 0},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad map %d accepted: %+v", i, m)
		}
	}
}

func TestAddrMapLinePage(t *testing.T) {
	m := defaultMap()
	if got := m.Line(0x12345); got != 0x12340 {
		t.Fatalf("Line(0x12345) = %#x, want 0x12340", uint64(got))
	}
	if got := m.Page(0x12345); got != 0x12000 {
		t.Fatalf("Page(0x12345) = %#x, want 0x12000", uint64(got))
	}
	if got := m.PageNum(0x12345); got != 0x12 {
		t.Fatalf("PageNum(0x12345) = %#x, want 0x12", got)
	}
}

func TestAddrMapDecodeInterleavesPages(t *testing.T) {
	m := defaultMap()
	// Consecutive pages must rotate across MCs first.
	for p := int64(0); p < 8; p++ {
		loc := m.Decode(Addr(p * 4096))
		if loc.MC != int(p%2) {
			t.Fatalf("page %d: MC = %d, want %d", p, loc.MC, p%2)
		}
	}
	// Within one MC, consecutive pages rotate across ranks.
	locs := make([]Loc, 4)
	for i := range locs {
		locs[i] = m.Decode(Addr(int64(i*2) * 4096)) // pages 0,2,4,6 all MC0
	}
	for i, loc := range locs {
		if loc.Rank != i%4 {
			t.Fatalf("MC0 page %d: rank = %d, want %d", i, loc.Rank, i%4)
		}
	}
}

func TestAddrMapDecodeColumns(t *testing.T) {
	m := defaultMap()
	loc := m.Decode(0x1000 + 3*64)
	if loc.Col != 3 {
		t.Fatalf("Col = %d, want 3", loc.Col)
	}
	// Same page, different columns: identical bank coordinates.
	a := m.Decode(0x1000)
	b := m.Decode(0x1000 + 4095)
	if a.MC != b.MC || a.Rank != b.Rank || a.Bank != b.Bank || a.Row != b.Row {
		t.Fatalf("same-page addrs decode to different banks: %v vs %v", a, b)
	}
}

func TestAddrMapDecodeCoversAllBanks(t *testing.T) {
	m := defaultMap()
	seen := map[string]bool{}
	total := m.MCs * m.RanksPerMC * m.Banks
	for p := int64(0); p < int64(total); p++ {
		loc := m.Decode(Addr(p * 4096))
		key := loc.String()
		if seen[key] {
			t.Fatalf("page %d reuses bank %v before covering all %d banks", p, loc, total)
		}
		seen[key] = true
	}
	if len(seen) != total {
		t.Fatalf("covered %d banks, want %d", len(seen), total)
	}
}

func TestAddrMapDecodeRoundTripProperty(t *testing.T) {
	m := defaultMap()
	// Property: Decode is total and in-range for any address, and MCOf
	// agrees with Decode.
	f := func(raw uint64) bool {
		a := Addr(raw % (1 << 40))
		loc := m.Decode(a)
		if loc.MC < 0 || loc.MC >= m.MCs {
			return false
		}
		if loc.Rank < 0 || loc.Rank >= m.RanksPerMC {
			return false
		}
		if loc.Bank < 0 || loc.Bank >= m.Banks {
			return false
		}
		if loc.Col < 0 || loc.Col >= m.PageBytes/m.LineBytes {
			return false
		}
		if loc.Row < 0 {
			return false
		}
		return loc.MC == m.MCOf(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Read: "read", Write: "write", Writeback: "writeback", Prefetch: "prefetch", Fetch: "fetch"}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind String() = %q", Kind(99).String())
	}
}

func TestKindIsDemand(t *testing.T) {
	if !Read.IsDemand() || !Write.IsDemand() || !Fetch.IsDemand() {
		t.Fatal("demand kinds misclassified")
	}
	if Writeback.IsDemand() || Prefetch.IsDemand() {
		t.Fatal("non-demand kinds misclassified")
	}
}

func TestRequestCompleteFiresOnce(t *testing.T) {
	calls := 0
	r := &Request{ID: 7}
	r.OnDone = func(*Request, sim.Cycle) { calls++ }
	r.Complete(10)
	if calls != 1 || !r.Done() {
		t.Fatalf("calls=%d done=%v, want 1,true", calls, r.Done())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Complete did not panic")
		}
	}()
	r.Complete(11)
}

func TestIDSourceUnique(t *testing.T) {
	var s IDSource
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := s.Next()
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestPageTableFirstTouchDistinctAndStable(t *testing.T) {
	pt := NewPageTable(1<<20, 4096) // 256 frames
	a := pt.Translate(CoreSpace(0, 0x10000))
	b := pt.Translate(CoreSpace(1, 0x10000)) // different core, same vaddr
	c := pt.Translate(CoreSpace(0, 0x10000)) // repeat: stable mapping
	if a == b {
		t.Fatal("two distinct pages share a frame")
	}
	if c != a {
		t.Fatalf("repeat translation %#x != original %#x", uint64(c), uint64(a))
	}
	if pt.Allocated() != 2 {
		t.Fatalf("Allocated() = %d, want 2", pt.Allocated())
	}
}

func TestPageTableAllocationIsBijectiveUntilFull(t *testing.T) {
	pt := NewPageTable(64*4096, 4096) // 64 frames (power of two: permuted)
	seen := map[Addr]bool{}
	for i := 0; i < 64; i++ {
		p := pt.Translate(VAddr(i * 4096))
		frame := p / 4096
		if seen[frame] {
			t.Fatalf("frame %d reused before exhaustion", frame)
		}
		seen[frame] = true
	}
}

func TestPageTableSpreadsChannelParity(t *testing.T) {
	// Two lockstep programs touching pages alternately must not end up
	// pinned to opposite parities (the page%MCs channel mapping).
	pt := NewPageTable(1<<30, 4096)
	parity := [2][2]int{}
	for i := 0; i < 256; i++ {
		for core := 0; core < 2; core++ {
			p := pt.Translate(CoreSpace(core, uint64(i*4096)))
			parity[core][(p/4096)%2]++
		}
	}
	for core := 0; core < 2; core++ {
		if parity[core][0] == 0 || parity[core][1] == 0 {
			t.Fatalf("core %d pinned to one channel parity: %v", core, parity[core])
		}
	}
}

func TestPageTableOffsetPreserved(t *testing.T) {
	pt := NewPageTable(1<<20, 4096)
	p := pt.Translate(0x10123)
	if uint64(p)%4096 != 0x123 {
		t.Fatalf("offset not preserved: %#x", uint64(p))
	}
}

func TestPageTableWraps(t *testing.T) {
	pt := NewPageTable(4*4096, 4096) // 4 frames
	used := map[Addr]bool{}
	for i := uint64(0); i < 4; i++ {
		used[pt.Translate(VAddr(i*4096))/4096] = true
	}
	if len(used) != 4 {
		t.Fatalf("only %d distinct frames used before exhaustion", len(used))
	}
	// The 5th allocation wraps: it must reuse some in-range frame
	// rather than failing or escaping the physical space.
	fifth := pt.Translate(4*4096) / 4096
	if fifth > 3 {
		t.Fatalf("wrapped frame %d out of range", fifth)
	}
	// Allocated counts mapped pages, not frames: five on four frames.
	if n := pt.Allocated(); n != 5 {
		t.Fatalf("Allocated() = %d after five first touches, want 5", n)
	}
}

func TestPageTablePanicsOnBadSizes(t *testing.T) {
	for _, tc := range []struct{ total, page uint64 }{
		{0, 4096}, {4096, 0}, {4096, 100}, {5000, 4096},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPageTable(%d,%d) did not panic", tc.total, tc.page)
				}
			}()
			NewPageTable(tc.total, tc.page)
		}()
	}
}

func TestCoreSpaceDisjoint(t *testing.T) {
	a := CoreSpace(0, 0xdeadbeef)
	b := CoreSpace(1, 0xdeadbeef)
	if a == b {
		t.Fatal("core spaces overlap")
	}
	if uint64(a)&0xffffffff != 0xdeadbeef {
		t.Fatalf("low bits clobbered: %#x", uint64(a))
	}
}
