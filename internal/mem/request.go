package mem

import (
	"fmt"

	"stackedsim/internal/attrib"
	"stackedsim/internal/sim"
)

// Kind classifies a memory request.
type Kind uint8

const (
	// Read is a demand load miss.
	Read Kind = iota
	// Write is a demand store (write-allocate at the caches).
	Write
	// Writeback is a dirty-line eviction traveling down the hierarchy.
	Writeback
	// Prefetch is a hardware prefetcher read; it is dropped rather than
	// queued when resources are exhausted.
	Prefetch
	// Fetch is an instruction fetch from the IL1.
	Fetch
)

var kindNames = [...]string{"read", "write", "writeback", "prefetch", "fetch"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsDemand reports whether a request of this kind stalls a core until it
// completes. Writebacks and prefetches do not.
func (k Kind) IsDemand() bool { return k == Read || k == Write || k == Fetch }

// Request is one memory transaction flowing through the hierarchy. A
// single Request object travels from the core to DRAM and back; components
// annotate it rather than copying it.
type Request struct {
	ID   uint64
	Kind Kind
	Addr Addr // full physical address
	Line Addr // line-aligned physical address
	Core int  // issuing core (or -1 for hierarchy-internal traffic)
	PC   uint64

	// Issued is the cycle the request entered the component currently
	// holding it; components use it for queue-delay accounting.
	Issued sim.Cycle
	// Born is the cycle the core first emitted the request.
	Born sim.Cycle

	// Dropped marks a prefetch the hierarchy discarded under resource
	// pressure instead of servicing; it completes without data and the
	// issuing cache must unwind its bookkeeping.
	Dropped bool

	// Excl marks ownership intent under directory coherence: the L1 sets
	// it on store(-allocate) misses so a private L2 requests the line in
	// an exclusive (writable) state via GetM instead of GetS. The shared
	// L2 ignores it, so seed-mode behavior is unchanged.
	Excl bool

	// Attrib, when cycle accounting is enabled, carries the per-stage
	// timestamps of this miss's lifecycle; derived requests inherit the
	// tag so downstream components stamp the original miss. Nil when
	// attribution is disabled — every stamp on a nil tag is a no-op.
	Attrib *attrib.Tag

	// Owner and OwnerIdx carry an allocation-free completion context:
	// a component that uses a single prebuilt OnDone function for many
	// requests stores the per-miss state here (a pointer in Owner, an
	// index in OwnerIdx) instead of capturing it in a fresh closure.
	Owner    any
	OwnerIdx int

	// OnDone, if non-nil, runs exactly once when the request completes.
	OnDone func(r *Request, now sim.Cycle)

	done bool

	// Link is the request's place on the one sim.List it is parked on:
	// the waiters of a miss, a refused request's Outbox, a hit in flight.
	Link sim.Link[*Request]

	// src, when the request came from an IDSource pool, is where
	// Complete returns it; released guards against double release and
	// tells NewRequest a recycled request from a fresh one.
	src      *IDSource
	released bool
}

func (r *Request) String() string {
	return fmt.Sprintf("req#%d %s core%d addr=%#x", r.ID, r.Kind, r.Core, uint64(r.Addr))
}

// Done reports whether Complete has been called.
func (r *Request) Done() bool { return r.done }

// Complete marks the request finished and fires OnDone. Calling Complete
// twice panics: every request must have exactly one completion path.
//
// A request's lifecycle ends when Complete returns — no component reads
// or writes a request after completing it — so pooled requests are
// handed straight back to their IDSource pool here. Requests built
// as literals (tests, cold paths) have no source and are left to the GC.
func (r *Request) Complete(now sim.Cycle) {
	if r.done {
		panic(fmt.Sprintf("mem: double completion of %v", r))
	}
	r.done = true
	if r.OnDone != nil {
		r.OnDone(r, now)
	}
	if r.src != nil {
		r.src.release(r)
	}
}

// IDSource hands out unique request IDs and pools the Request objects
// themselves. It is confined to one simulated System and accessed only
// from the single simulation goroutine, so the pool needs no lock.
type IDSource struct {
	next uint64
	pool sim.Pool[Request]

	gets, hits, puts uint64
}

// Next returns a fresh ID.
func (s *IDSource) Next() uint64 {
	s.next++
	return s.next
}

// NewRequest returns a zeroed Request carrying a fresh ID, reusing a
// previously completed one when the pool has any. The request returns
// to the pool automatically when Complete runs; callers must not retain
// it past that point. A hit is a released request handed out again: a
// fresh node from the pool's slab is zero, and so never released.
func (s *IDSource) NewRequest() *Request {
	s.gets++
	r := s.pool.Get()
	if r.released {
		s.hits++
	}
	*r = Request{ID: s.Next(), src: s}
	return r
}

// Writeback returns a request that writes line back to the level below,
// on behalf of core (-1 below the L1s), born now.
func (s *IDSource) Writeback(line Addr, core int, now sim.Cycle) *Request {
	r := s.NewRequest()
	r.Kind = Writeback
	r.Addr = line
	r.Line = line
	r.Core = core
	r.Born = now
	return r
}

// release returns a completed request to the pool. Releasing the
// same request twice panics: it would hand two future misses the same
// object and corrupt the simulation silently.
func (s *IDSource) release(r *Request) {
	if r.released {
		panic(fmt.Sprintf("mem: double release of %v", r))
	}
	r.released = true
	s.puts++
	s.pool.Put(r)
}

// Recycle returns a pooled request that no one will complete (e.g. an
// L2 prefetch that found no MSHR entry, or one whose fill was the point).
// The caller must hold the only reference. Requests without a source
// are ignored.
func (s *IDSource) Recycle(r *Request) {
	if r.src != s {
		return
	}
	s.release(r)
}

// PoolStats reports pool traffic: requests handed out, how many of
// those reused a pooled object (hits), and completed requests returned.
func (s *IDSource) PoolStats() (gets, hits, puts uint64) {
	return s.gets, s.hits, s.puts
}
