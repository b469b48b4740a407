package mem

import (
	"slices"
	"testing"

	"stackedsim/internal/sim"
)

// TestRequestPoolReuse pins the pooled request lifecycle: a completed
// request returns to its IDSource and the next NewRequest hands back
// the same object, fully reset, with a fresh ID.
func TestRequestPoolReuse(t *testing.T) {
	var s IDSource
	r1 := s.NewRequest()
	r1.Kind = Writeback
	r1.Addr = 0xdead
	r1.Core = 3
	r1.Owner = t
	r1.OwnerIdx = 7
	id1 := r1.ID
	r1.Complete(10)

	r2 := s.NewRequest()
	if r2 != r1 {
		t.Fatal("NewRequest after Complete did not reuse the pooled object")
	}
	if r2.ID == id1 {
		t.Fatal("recycled request kept its old ID")
	}
	if r2.Kind != Read || r2.Addr != 0 || r2.Core != 0 ||
		r2.Owner != nil || r2.OwnerIdx != 0 || r2.Done() {
		t.Fatalf("recycled request not reset: %+v", r2)
	}
	gets, hits, puts := s.PoolStats()
	if gets != 2 || hits != 1 || puts != 1 {
		t.Fatalf("PoolStats = %d/%d/%d, want 2/1/1", gets, hits, puts)
	}
}

// TestRequestDoubleCompletePanics pins that completing a request twice
// is a simulator bug that fails loudly rather than corrupting the pool.
func TestRequestDoubleCompletePanics(t *testing.T) {
	var s IDSource
	r := s.NewRequest()
	r.Complete(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Complete did not panic")
		}
	}()
	r.Complete(2)
}

// TestRequestCompleteRunsOnDoneBeforeRelease pins that OnDone observes
// the request's fields intact: the release to the pool happens only
// after the callback returns.
func TestRequestCompleteRunsOnDoneBeforeRelease(t *testing.T) {
	var s IDSource
	r := s.NewRequest()
	r.Addr = 0x40
	var seen Addr
	r.OnDone = func(r *Request, now sim.Cycle) {
		seen = r.Addr
		if r.released {
			t.Fatal("request released before OnDone ran")
		}
	}
	r.Complete(1)
	if seen != 0x40 {
		t.Fatalf("OnDone saw Addr %#x, want 0x40", seen)
	}
	if !r.released {
		t.Fatal("request not released after Complete")
	}
}

// TestRecycle pins Recycle's contract: a pooled request that was built
// but never submitted goes straight back to the free list, a foreign
// or literal request is ignored, and recycling the same request twice
// panics like any double release.
func TestRecycle(t *testing.T) {
	var s, other IDSource
	r := s.NewRequest()
	other.Recycle(r) // wrong source: ignored
	s.Recycle(&Request{ID: 99})
	if _, _, puts := s.PoolStats(); puts != 0 {
		t.Fatalf("foreign/literal recycle reached the pool: puts=%d", puts)
	}
	s.Recycle(r)
	if _, _, puts := s.PoolStats(); puts != 1 {
		t.Fatalf("Recycle did not release: puts=%d", puts)
	}
	if got := s.NewRequest(); got != r {
		t.Fatal("recycled request was not reused")
	}
}

// TestRecycleThenCompletePanics pins that a request cannot be both
// recycled and completed: the second release panics.
func TestRecycleThenCompletePanics(t *testing.T) {
	var s IDSource
	r := s.NewRequest()
	s.Recycle(r)
	defer func() {
		if recover() == nil {
			t.Fatal("Complete after Recycle did not panic")
		}
	}()
	r.Complete(1)
}

// TestPoolHitsCountOnlyRecycled pins mem.pool_hit_rate's numerator: a
// request from a fresh slab node is never a hit, however many fresh
// nodes the slab holds; a completed request handed out again is one.
func TestPoolHitsCountOnlyRecycled(t *testing.T) {
	var s IDSource
	reqs := make([]*Request, 8)
	for i := range reqs {
		reqs[i] = s.NewRequest()
	}
	if gets, hits, puts := s.PoolStats(); gets != 8 || hits != 0 || puts != 0 {
		t.Fatalf("8 fresh requests: PoolStats = %d/%d/%d, want 8/0/0", gets, hits, puts)
	}
	for _, r := range reqs[:3] {
		r.Complete(1)
	}
	for range 3 {
		r := s.NewRequest()
		if !slices.Contains(reqs[:3], r) {
			t.Fatalf("NewRequest with 3 completed returned %v, not one of them", r)
		}
	}
	if gets, hits, puts := s.PoolStats(); gets != 11 || hits != 3 || puts != 3 {
		t.Fatalf("3 completed and 3 taken: PoolStats = %d/%d/%d, want 11/3/3", gets, hits, puts)
	}
	if r := s.NewRequest(); slices.Contains(reqs, r) {
		t.Fatalf("NewRequest with none completed returned the live %v", r)
	}
	if _, hits, _ := s.PoolStats(); hits != 3 {
		t.Fatalf("a fresh request counted as a hit: hits=%d, want 3", hits)
	}
}

// TestWaitlist pins the requests' instance of sim.List, the FIFO a miss
// parks them on: requests leave in the order they were pushed, a popped
// request can be parked again (on this list or another), and a request
// parked twice panics rather than ending up completed by two misses.
func TestWaitlist(t *testing.T) {
	var s IDSource
	var l, other sim.List[*Request]
	if l.Head() != nil || l.Pop() != nil || l.Len() != 0 {
		t.Fatal("the zero list is not empty")
	}
	rs := []*Request{s.NewRequest(), s.NewRequest(), s.NewRequest()}
	for _, r := range rs {
		l.Push(r, &r.Link)
	}
	if l.Head() != rs[0] || !slices.Equal(slices.Collect(l.All()), rs) || l.Len() != 3 {
		t.Fatalf("three pushed requests read back from %v, want %v", l.Head(), rs[0])
	}
	first := l.Pop()
	other.Push(first, &first.Link) // unparked by the Pop, so free to wait elsewhere
	r := l.Pop()
	l.Push(r, &r.Link) // ... or on the same list again, at its tail
	var got []*Request
	for r := l.Pop(); r != nil; r = l.Pop() {
		got = append(got, r)
	}
	if want := []*Request{rs[2], rs[1]}; first != rs[0] || !slices.Equal(got, want) {
		t.Fatalf("popped %v then %v, want %v then %v", first, got, rs[0], want)
	}
	if l.Head() != nil || l.Len() != 0 || other.Head() != first || other.Len() != 1 {
		t.Fatal("a drained list is not empty, or the other lost its request")
	}
	for name, park := range map[string]func(){
		"Push":      func() { l.Push(first, &first.Link) },
		"PushFront": func() { l.PushFront(first, &first.Link) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a request parked on two lists by %s did not panic", name)
				}
			}()
			park()
		}()
	}
}
