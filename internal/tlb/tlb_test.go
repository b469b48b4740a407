package tlb

import (
	"testing"

	"stackedsim/internal/mem"
)

const pageBytes = 4096

func newTLB(entries, ways int) *TLB {
	return New(entries, ways, mem.NewPageTable(1<<32, pageBytes))
}

// access looks up virtual page vpage and reports whether it hit.
func access(tb *TLB, vpage uint64) bool {
	_, hit := tb.Access(mem.VAddr(vpage * pageBytes))
	return hit
}

func TestMissThenHit(t *testing.T) {
	tb := newTLB(64, 4)
	if access(tb, 42) {
		t.Fatal("hit in empty TLB")
	}
	if !access(tb, 42) {
		t.Fatal("miss after insertion")
	}
}

// TestTranslationHeldInEntry pins when the page table is asked: a miss
// allocates no frame (the core pays the walk and retries), the first hit
// allocates it, and every later hit — on any offset of the page — answers
// what the page table would.
func TestTranslationHeldInEntry(t *testing.T) {
	pt := mem.NewPageTable(1<<20, pageBytes)
	tb := New(64, 4, pt)
	v := mem.VAddr(7*pageBytes + 0x123)
	if _, hit := tb.Access(v); hit {
		t.Fatal("hit in empty TLB")
	}
	if n := pt.Allocated(); n != 0 {
		t.Fatalf("a miss allocated %d frames", n)
	}
	first, hit := tb.Access(v)
	if !hit || pt.Allocated() != 1 {
		t.Fatalf("first hit: hit=%t, %d frames allocated; want a hit and 1", hit, pt.Allocated())
	}
	for _, w := range []mem.VAddr{v, v - 0x123, v + 0x40, v - 0x123 + pageBytes - 1} {
		got, hit := tb.Access(w)
		if want := pt.Translate(w); !hit || got != want {
			t.Fatalf("Access(%#x) = %#x, %t; Translate says %#x", uint64(w), uint64(got), hit, uint64(want))
		}
	}
	if want := pt.Translate(v); first != want {
		t.Fatalf("first hit = %#x; Translate says %#x", uint64(first), uint64(want))
	}
	if pt.Allocated() != 1 {
		t.Fatalf("later hits allocated: %d frames", pt.Allocated())
	}
}

// TestRefilledPageKeepsItsFrame evicts a translated page and walks it
// again: the refilled entry asks the page table afresh and gets the
// frame the page already had.
func TestRefilledPageKeepsItsFrame(t *testing.T) {
	pt := mem.NewPageTable(1<<20, pageBytes)
	tb := New(4, 4, pt) // one set
	v := mem.VAddr(3 * pageBytes)
	tb.Access(v)
	before, _ := tb.Access(v)
	for p := uint64(10); p < 14; p++ { // four newer pages evict page 3
		access(tb, p)
		access(tb, p)
	}
	if _, hit := tb.Access(v); hit {
		t.Fatal("page 3 survived four newer pages in a 4-way set")
	}
	after, hit := tb.Access(v)
	if !hit || after != before {
		t.Fatalf("refilled page: %#x, %t; want %#x, true", uint64(after), hit, uint64(before))
	}
	if pt.Allocated() != 5 {
		t.Fatalf("%d frames allocated, want 5", pt.Allocated())
	}
}

func TestLRUWithinSet(t *testing.T) {
	tb := newTLB(4, 4) // one set
	for v := uint64(0); v < 4; v++ {
		access(tb, v)
	}
	access(tb, 0) // touch 0 so 1 is LRU
	access(tb, 9) // evicts 1
	if !access(tb, 0) {
		t.Fatal("recently used entry evicted")
	}
	if access(tb, 1) {
		t.Fatal("LRU entry survived")
	}
}

func TestSetIndexing(t *testing.T) {
	tb := newTLB(8, 4) // 2 sets
	// Pages 0 and 1 land in different sets: filling set 0 must not
	// evict page 1.
	access(tb, 1)
	for v := uint64(0); v < 16; v += 2 { // all even pages -> set 0
		access(tb, v)
	}
	if !access(tb, 1) {
		t.Fatal("cross-set eviction")
	}
}

func TestEmptyWaysPreferredOverEviction(t *testing.T) {
	tb := newTLB(4, 4)
	access(tb, 10)
	access(tb, 20)
	// Both must still be resident (two empty ways were available).
	if !access(tb, 10) || !access(tb, 20) {
		t.Fatal("eviction despite free ways")
	}
}

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct{ e, w int }{{0, 1}, {4, 0}, {5, 2}, {12, 4}} { // {12, 4}: 3 sets
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", tc.e, tc.w)
				}
			}()
			newTLB(tc.e, tc.w)
		}()
	}
}
