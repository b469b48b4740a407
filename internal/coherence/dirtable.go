package coherence

import (
	"fmt"
	"iter"
	"math/bits"

	"stackedsim/internal/mem"
)

// dirEntry tracks one line away from Invalid: the stable state a
// directory array holds. It is a slot of its bank's dirTable, 16 bytes,
// so a lookup that finds the line has loaded its state and its first
// sharer word, and a host cache line holds four slots. What only a line
// in flight reads is in its transaction record (txn), beside the table.
type dirEntry struct {
	// sharers is the exact sharer bitvector of cores 0-63; on a fabric
	// of more cores the table keeps the rest in its wide words.
	sharers uint64
	key     uint32 // line number + 1; zero marks a free slot
	// word holds the line's dstate in its low seven bits. Above the low
	// byte it holds the owner core in dirM; with openBit set it holds the
	// index of the line's transaction record instead, which then keeps
	// the owner.
	word uint32
}

const (
	stateMask    = 0x7f
	openBit      = 0x80
	payloadShift = 8
	maxPayload   = 1<<(32-payloadShift) - 1
)

// txn is a line's transaction record: the state a line keeps only while
// it is busy, or has requests deferred behind it. A record opens when
// its line leaves a stable state or first defers a request, and closes
// when settle leaves the line stable with nothing deferred.
type txn struct {
	// req is the request being served while busy; reqWasSharer caches
	// its membership before the invalidations cleared the set.
	req *message
	// deferred are the requests that arrived while the line was busy,
	// replayed in order once it settles.
	deferred     fifo
	key          uint32 // the line's key; zero while the record is closed
	owner        int32  // the line's owner (dirM, trBusyFwdS) while open
	acksLeft     int32  // trBusyInv
	reqWasSharer bool
}

// dirTable indexes one bank's lines: open addressing with linear
// probing over a power-of-two array of entries, grown by doubling
// before it is three-quarters full. Removal shifts the rest of the probe
// run back into the hole, so there are no tombstones, and a miss stops
// at the first free slot. Beside the array, a slab holds the open
// transaction records, recycled through a stack of closed ones.
//
// An insert may grow the array and a removal moves other entries, so a
// slot index is only good until the next insert or removal; a record
// names its line by key, so it stays where it is while its slot moves.
// Opening a record may grow the slab, so a *txn is only good until the
// next record opens.
type dirTable struct {
	slots []dirEntry
	// wide holds the sharer words beyond the first, extra per slot:
	// slot i's are wide[i*extra : (i+1)*extra]. They move, clear and grow
	// with their slot; on 64 cores or fewer extra is zero and wide empty.
	wide      []uint64
	extra     int
	live      int
	shift     uint // 64 - log2(len(slots)): home keeps the hash's top bits
	lineShift uint // log2 of the line size: a key is the line's number + 1

	txns     []txn
	closed   []int32 // indices of the closed records in txns
	openTxns int
}

// newDirTable returns an empty table of slots entries (a power of two)
// for a fabric of cores cores and lines of lineBytes bytes, with room
// for txns open records before its slab grows.
func newDirTable(cores, slots, txns, lineBytes int) dirTable {
	if cores > maxPayload {
		panic(fmt.Sprintf("coherence: a directory entry names at most %d owners, not %d", maxPayload, cores))
	}
	t := dirTable{
		extra:     (cores+63)/64 - 1,
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		txns:      make([]txn, 0, txns),
		closed:    make([]int32, 0, txns),
	}
	t.alloc(slots)
	return t
}

// alloc gives the table an empty array of slots entries.
func (t *dirTable) alloc(slots int) {
	t.slots = make([]dirEntry, slots)
	t.wide = make([]uint64, slots*t.extra)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

func (t *dirTable) key(line mem.Addr) uint32 { return uint32(line>>t.lineShift) + 1 }

func (t *dirTable) lineOf(key uint32) mem.Addr { return mem.Addr(key-1) << t.lineShift }

// home is a key's first probe: Fibonacci hashing, whose top bits mix
// every bit of the line number.
func (t *dirTable) home(key uint32) int {
	return int(uint64(key) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns line's slot, or -1 when the line has no entry.
func (t *dirTable) find(line mem.Addr) int {
	key, mask := t.key(line), len(t.slots)-1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// insert gives line, which must have no entry, a fresh one at dirI and
// returns its slot.
func (t *dirTable) insert(line mem.Addr) int {
	if 4*(t.live+1) > 3*len(t.slots) {
		t.grow()
	}
	key := t.key(line)
	i := t.firstFree(key)
	t.slots[i].key = key
	t.live++
	return i
}

// firstFree returns the first free slot of key's probe run.
func (t *dirTable) firstFree(key uint32) int {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// remove frees slot i, whose record must be closed. Each later entry of
// the probe run whose home does not lie cyclically in (hole, j] moves
// back into the hole, which then moves to where it was.
func (t *dirTable) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		h := t.home(t.slots[j].key)
		if i <= j && (h <= i || h > j) || i > j && h <= i && h > j {
			t.slots[i] = t.slots[j]
			copy(t.wideOf(i), t.wideOf(j))
			i = j
		}
	}
	t.slots[i] = dirEntry{}
	clear(t.wideOf(i))
	t.live--
}

// grow doubles the array and re-seats every entry.
func (t *dirTable) grow() {
	old := *t
	t.alloc(2 * len(old.slots))
	for i := range old.slots {
		if old.slots[i].key == 0 {
			continue
		}
		j := t.firstFree(old.slots[i].key)
		t.slots[j] = old.slots[i]
		copy(t.wideOf(j), old.wideOf(i))
	}
}

func (t *dirTable) state(i int) dstate { return dstate(t.slots[i].word & stateMask) }

func (t *dirTable) setState(i int, s dstate) {
	e := &t.slots[i]
	e.word = e.word&^stateMask | uint32(s)
}

// owner returns slot i's owner core, meaningful in dirM and trBusyFwdS.
func (t *dirTable) owner(i int) int {
	if r := t.txn(i); r != nil {
		return int(r.owner)
	}
	return int(t.slots[i].word >> payloadShift)
}

func (t *dirTable) setOwner(i, c int) {
	if r := t.txn(i); r != nil {
		r.owner = int32(c)
		return
	}
	e := &t.slots[i]
	e.word = e.word&(1<<payloadShift-1) | uint32(c)<<payloadShift
}

// txn returns slot i's open record, nil when it has none.
func (t *dirTable) txn(i int) *txn {
	if w := t.slots[i].word; w&openBit != 0 {
		return &t.txns[w>>payloadShift]
	}
	return nil
}

// openTxn returns slot i's record, opening one if it has none: the
// owner moves from the slot into it, and the slot names the record.
func (t *dirTable) openTxn(i int) *txn {
	if r := t.txn(i); r != nil {
		return r
	}
	var x int32
	if n := len(t.closed); n > 0 {
		x = t.closed[n-1]
		t.closed = t.closed[:n-1]
	} else {
		if len(t.txns) > maxPayload {
			panic(fmt.Sprintf("coherence: more than %d lines in flight at one directory bank", maxPayload))
		}
		x = int32(len(t.txns))
		t.txns = append(t.txns, txn{})
	}
	e, r := &t.slots[i], &t.txns[x]
	r.key, r.owner = e.key, int32(e.word>>payloadShift)
	e.word = e.word&stateMask | openBit | uint32(x)<<payloadShift
	t.openTxns++
	return r
}

// closeTxn closes slot i's record, whose queue must be empty: the owner
// moves back into the slot.
func (t *dirTable) closeTxn(i int) {
	e := &t.slots[i]
	x := e.word >> payloadShift
	r := &t.txns[x]
	e.word = e.word&stateMask | uint32(r.owner)<<payloadShift
	*r = txn{}
	t.closed = append(t.closed, int32(x))
	t.openTxns--
}

// begin opens slot i's record to serve req in busy state s.
func (t *dirTable) begin(i int, s dstate, req *message) *txn {
	r := t.openTxn(i)
	r.req = req
	t.setState(i, s)
	return r
}

// open yields every open record with its line, in slab order.
func (t *dirTable) open() iter.Seq2[mem.Addr, *txn] {
	return func(yield func(mem.Addr, *txn) bool) {
		for x := range t.txns {
			if r := &t.txns[x]; r.key != 0 && !yield(t.lineOf(r.key), r) {
				return
			}
		}
	}
}

func (t *dirTable) wideOf(i int) []uint64 { return t.wide[i*t.extra : (i+1)*t.extra] }

// word returns sharer word w (cores 64w to 64w+63) of slot i.
func (t *dirTable) word(i, w int) *uint64 {
	if w == 0 {
		return &t.slots[i].sharers
	}
	return &t.wide[i*t.extra+w-1]
}

func (t *dirTable) setSharer(i, c int) { *t.word(i, c/64) |= 1 << (c % 64) }

func (t *dirTable) isSharer(i, c int) bool { return *t.word(i, c/64)&(1<<(c%64)) != 0 }

func (t *dirTable) sharerCount(i int) int {
	n := bits.OnesCount64(t.slots[i].sharers)
	for _, w := range t.wideOf(i) {
		n += bits.OnesCount64(w)
	}
	return n
}

func (t *dirTable) clearSharers(i int) {
	t.slots[i].sharers = 0
	clear(t.wideOf(i))
}
