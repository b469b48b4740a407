package coherence

import (
	"slices"
	"testing"
	"unsafe"

	"stackedsim/internal/mem"
)

// TestDirEntryFitsOneSlot pins the table's layout: an entry is the
// stable state only, 16 bytes with its first sharer word inline, so the
// probe that finds a line has loaded everything a stable ≤ 64-core
// protocol step reads and a host cache line holds four entries.
func TestDirEntryFitsOneSlot(t *testing.T) {
	if n := unsafe.Sizeof(dirEntry{}); n != 16 {
		t.Fatalf("dirEntry is %d bytes, want 16", n)
	}
}

// TestMessageFitsTwoLines pins a protocol message, mesh header and all,
// to two host cache lines: the fabric's pool hands messages out of slabs
// of 128-byte elements, so the header's first line, which holds all a
// hop touches, is one line of every message.
func TestMessageFitsTwoLines(t *testing.T) {
	if n := unsafe.Sizeof(message{}); n != 128 {
		t.Fatalf("message is %d bytes, want 128", n)
	}
}

// fuzzKeys is FuzzDirTable's key universe of 32 lines: 8 whose home is
// the last slot and 4 whose home is slot 0 at every table size up to
// 128 slots, so their probe runs wrap past the end of the array into
// each other, then 20 lines wherever they hash.
func fuzzKeys() []mem.Addr {
	tb := newDirTable(1, 128, 1, 64)
	var wrap, zero, plain []mem.Addr
	for n := mem.Addr(1); len(wrap) < 8 || len(zero) < 4 || len(plain) < 20; n++ {
		line := n * 64
		switch h := tb.home(tb.key(line)); {
		case h == 127 && len(wrap) < 8:
			wrap = append(wrap, line)
		case h == 0 && len(zero) < 4:
			zero = append(zero, line)
		case h != 0 && h != 127 && len(plain) < 20:
			plain = append(plain, line)
		}
	}
	return append(append(wrap, zero...), plain...)
}

// fuzzLine is FuzzDirTable's reference for one live line: its key index,
// and its record while one is open, the deferred requests as a slice.
type fuzzLine struct {
	k        int
	open     bool
	req      *message
	deferred []*message
}

// FuzzDirTable drives the directory table and its record slab against a
// map through inserts, removals, the growth they cause, and records
// opened, deferred into, replayed and closed. Each op byte names a key
// (low five bits) and an operation (top three): insert, remove (closing
// the line's record first, as settle does), open a record to serve a
// request, defer a request, replay the oldest deferred request (which
// must be the oldest the map holds, or none when it holds none), or
// close the record after replaying its queue. Every live entry carries
// its key's state, owner and sharers, which must survive the moves and
// a record's opening and closing. After every operation each live key
// is found with its payload and its record (or none) as the map has it,
// the record's queue walked from its head in the map's order, each
// other key is absent, every free slot is clear, the bank counts the
// open records the map does, no record is reachable from two lines, and
// every record no line reaches is closed, clear and on the free stack.
func FuzzDirTable(f *testing.F) {
	const (
		ins, rem, open, dfr, cls, pop = 0 << 5, 1 << 5, 2 << 5, 3 << 5, 4 << 5, 7 << 5
	)
	// The last-slot run wraps into slot 0, its lines holding records;
	// removing its head must pull the wrapped entries back across the
	// end with their records.
	f.Add(uint8(64), []byte{ins | 0, ins | 1, ins | 2, ins | 8, open | 1, dfr | 2, dfr | 2, rem | 0, cls | 2, ins | 0, rem | 1, cls | 1, rem | 2})
	f.Add(uint8(200), []byte{ins | 0, ins | 8, ins | 1, ins | 9, dfr | 0, open | 8, ins | 2, dfr | 9, rem | 0, rem | 8, cls | 9, open | 9, rem | 1, rem | 9, ins | 3})
	// Enough inserts to grow 8 → 16 → 32 → 64 with wrapped runs and
	// records live, then closes and removals that recycle the records.
	grow := make([]byte, 0, 128)
	for k := byte(0); k < 32; k++ {
		grow = append(grow, ins|k)
		if k%3 == 0 {
			grow = append(grow, dfr|k)
		}
	}
	for k := byte(0); k < 32; k += 2 {
		grow = append(grow, rem|k, cls|(k+1), open|k, ins|k, open|k)
	}
	f.Add(uint8(255), grow)
	f.Add(uint8(1), []byte{ins | 12, ins | 13, ins | 0, ins | 1, open | 12, open | 0, cls | 12, cls | 0, open | 13, dfr | 1, rem | 13, rem | 1, open | 0, pop | 0})
	// A record closed with a queue behind it is reopened for another
	// line, whose queue must start empty; a queue replayed empty while
	// its record stays open takes new requests from an empty list, as
	// settle's replays of a line that goes busy again leave it.
	f.Add(uint8(8), []byte{ins | 3, ins | 4, dfr | 3, dfr | 3, dfr | 3, cls | 3, dfr | 4, open | 3, dfr | 3, pop | 3, dfr | 3, pop | 3, pop | 3, pop | 3, dfr | 3, dfr | 3, pop | 3})

	keys := fuzzKeys()
	f.Fuzz(func(t *testing.T, c uint8, ops []byte) {
		cores := int(c) + 1
		tb := newDirTable(cores, 8, 2, 64)
		shadow := map[mem.Addr]*fuzzLine{}
		for n, op := range ops {
			k := int(op & 31)
			line := keys[k]
			ref, live := shadow[line]
			i := tb.find(line)
			switch op & 0xe0 {
			case ins, 5 << 5:
				if !live {
					i = tb.insert(line)
					tb.setState(i, dstate(k%7))
					tb.setOwner(i, k%cores)
					tb.setSharer(i, k%cores)
					tb.setSharer(i, cores-1-k%cores)
					shadow[line] = &fuzzLine{k: k}
				}
			case rem:
				if live {
					if rec := tb.txn(i); rec != nil {
						replayAll(rec)
						tb.closeTxn(i)
					}
					tb.remove(i)
					delete(shadow, line)
				}
			case open:
				if live {
					req := &message{line: line}
					tb.openTxn(i).req = req
					ref.open, ref.req = true, req
				}
			case dfr, 6 << 5:
				if live {
					m := &message{line: line}
					m.Body = m
					tb.openTxn(i).deferred.Push(&m.Header, &m.Link)
					ref.open, ref.deferred = true, append(ref.deferred, m)
				}
			case pop:
				if live && ref.open {
					var want *message
					if len(ref.deferred) > 0 {
						want, ref.deferred = ref.deferred[0], ref.deferred[1:]
					}
					var got *message
					if h := tb.txn(i).deferred.Pop(); h != nil {
						got = h.Body
					}
					if got != want {
						t.Fatalf("op %d: key %d replayed %p, want %p", n, k, got, want)
					}
				}
			case cls:
				if live && ref.open {
					replayAll(tb.txn(i))
					tb.closeTxn(i)
					*ref = fuzzLine{k: k}
				}
			}
			checkDirTable(t, n, &tb, keys, shadow, cores)
		}
	})
}

// replayAll empties a record's deferred queue the way settle does,
// oldest first.
func replayAll(r *txn) {
	for r.deferred.Pop() != nil {
	}
}

// deferredOf walks a record's deferred queue from its head, in order,
// for at most limit requests (a queue linked into a cycle stops there),
// and reports whether its count is the number walked.
func deferredOf(r *txn, limit int) ([]*message, bool) {
	var q []*message
	for h := range r.deferred.All() {
		if len(q) == limit {
			break
		}
		q = append(q, h.Body)
	}
	return q, r.deferred.Len() == len(q)
}

// checkDirTable holds tb to FuzzDirTable's reference after op n.
func checkDirTable(t *testing.T, n int, tb *dirTable, keys []mem.Addr, shadow map[mem.Addr]*fuzzLine, cores int) {
	t.Helper()
	if tb.live != len(shadow) {
		t.Fatalf("op %d: %d live entries, want %d", n, tb.live, len(shadow))
	}
	opened := 0
	for k, line := range keys {
		i := tb.find(line)
		ref, live := shadow[line]
		if !live {
			if i >= 0 {
				t.Fatalf("op %d: removed key %d found in slot %d", n, k, i)
			}
			continue
		}
		switch {
		case i < 0:
			t.Fatalf("op %d: live key %d not found", n, k)
		case tb.state(i) != dstate(k%7) || tb.owner(i) != k%cores:
			t.Fatalf("op %d: key %d's slot holds state %s owner %d, want %s %d", n, k, tb.state(i), tb.owner(i), dstate(k%7), k%cores)
		case !tb.isSharer(i, k%cores) || !tb.isSharer(i, cores-1-k%cores):
			t.Fatalf("op %d: key %d lost its sharers", n, k)
		}
		want := 2
		if k%cores == cores-1-k%cores {
			want = 1
		}
		if got := tb.sharerCount(i); got != want {
			t.Fatalf("op %d: key %d has %d sharers, want %d", n, k, got, want)
		}
		rec := tb.txn(i)
		if (rec != nil) != ref.open {
			t.Fatalf("op %d: key %d has a record: %v, want %v", n, k, rec != nil, ref.open)
		}
		if rec == nil {
			continue
		}
		opened++
		q, tailOK := deferredOf(rec, len(ref.deferred)+1)
		if rec.key != tb.slots[i].key || rec.req != ref.req || !slices.Equal(q, ref.deferred) || !tailOK {
			t.Fatalf("op %d: key %d's record serves %p with %d deferred (count in place: %v), want %p with %d", n, k, rec.req, len(q), tailOK, ref.req, len(ref.deferred))
		}
	}
	if tb.openTxns != opened {
		t.Fatalf("op %d: bank counts %d open records, want %d", n, tb.openTxns, opened)
	}
	reached := map[uint32]bool{}
	for i := range tb.slots {
		e := tb.slots[i]
		if e.key == 0 {
			if e != (dirEntry{}) || tb.sharerCount(i) != 0 {
				t.Fatalf("op %d: free slot %d is not clear", n, i)
			}
			continue
		}
		if e.word&openBit == 0 {
			continue
		}
		if x := e.word >> payloadShift; reached[x] {
			t.Fatalf("op %d: record %d is reachable from two lines", n, x)
		} else {
			reached[x] = true
		}
	}
	walked := 0
	for line, rec := range tb.open() {
		if i := tb.find(line); i < 0 || tb.txn(i) != rec {
			t.Fatalf("op %d: the open records name line %#x, which does not hold the record", n, uint64(line))
		}
		walked++
	}
	if walked != opened || len(tb.closed)+opened != len(tb.txns) {
		t.Fatalf("op %d: %d records walked, %d closed of %d, with %d open", n, walked, len(tb.closed), len(tb.txns), opened)
	}
	for _, x := range tb.closed {
		if r := &tb.txns[x]; reached[uint32(x)] || r.key != 0 || r.req != nil || r.deferred != (fifo{}) || r.owner != 0 {
			t.Fatalf("op %d: closed record %d is reachable or not clear", n, x)
		}
		reached[uint32(x)] = true
	}
}

// BenchmarkDirectoryFind times one bank's line lookup: a table holding
// 8 k lines, half the lookups for lines it does not hold, consecutive
// lookups far apart so that the slot is cold in the host's caches, as
// it is in the machine.
func BenchmarkDirectoryFind(b *testing.B) {
	const lines = 8192
	tb := newDirTable(64, dirTableSlots, dirTxns, 64)
	for n := 0; n < lines; n++ {
		tb.insert(mem.Addr(2*n) * 64)
	}
	n := 0
	for b.Loop() {
		l := n * 4099 % (2 * lines)
		if found := tb.find(mem.Addr(l)*64) >= 0; found != (l%2 == 0) {
			b.Fatalf("line %d: found = %v", l, found)
		}
		n++
	}
}
