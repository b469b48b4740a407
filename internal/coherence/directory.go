package coherence

import (
	"fmt"
	"math/bits"

	"stackedsim/internal/cache"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// dstate is a directory entry's protocol state. Entries exist only for
// lines away from Invalid — absence from the table is I — except that an
// entry which returns to I with requests still deferred behind it lives
// on, at dirI, until settle has replayed them. A line in a busy state,
// or with requests deferred, has an open transaction record.
type dstate uint8

const (
	dirI dstate = iota
	// dirS: one or more clean sharers (exact bitvector).
	dirS
	// dirM: one owner holding the line E or M (MESI's E is tracked as
	// ownership — the directory cannot tell whether the owner wrote).
	dirM
	// trBusyMemS: a GetS is waiting on a memory read.
	trBusyMemS
	// trBusyMemM: a GetM is waiting on a memory read (after any
	// invalidations completed).
	trBusyMemM
	// trBusyInv: a GetM is collecting InvAcks from the sharers.
	trBusyInv
	// trBusyFwdS: a FwdGetS is waiting for the owner's demotion data —
	// or for the owner's racing PutM, which completes it equally.
	trBusyFwdS
)

func (s dstate) busy() bool { return s >= trBusyMemS }

func (s dstate) String() string {
	switch s {
	case dirS:
		return "S"
	case dirM:
		return "M"
	case trBusyMemS:
		return "BusyMemS"
	case trBusyMemM:
		return "BusyMemM"
	case trBusyInv:
		return "BusyInv"
	case trBusyFwdS:
		return "BusyFwdS"
	}
	return "I"
}

// DirStats counts directory-bank events.
type DirStats struct {
	GetS      uint64
	GetM      uint64
	PutM      uint64
	PutE      uint64
	StalePutM uint64 // PutM from a core that no longer owns the line
	Deferred  uint64 // requests queued behind a busy line
	InvSent   uint64
	InvAcks   uint64
	FwdGetS   uint64
	FwdGetM   uint64
	WBRaces   uint64 // FwdGetS completed by the owner's racing PutM
	MemReads  uint64
	MemWrites uint64
	AckM      uint64 // upgrade grants
	DataE     uint64 // exclusive grants from memory
	DataS     uint64 // shared grants from memory
}

// Directory is one directory bank, co-located with its vertical slice's
// memory controller: it serializes coherence for the lines that slice
// owns, one message per cycle with a pipelined lookup latency, and
// issues the memory reads and writes the protocol needs.
type Directory struct {
	endpoint
	id int // MC / bank index

	// lines holds an entry for every line away from Invalid (a bank
	// tracks thousands of them) and a record for each line in flight.
	lines dirTable

	lookups *sim.Delay[*message] // popped from the inbox, in the pipelined lookup
	toMC    cache.Outbox         // the protocol's memory reads and writes

	onMemRead func(r *mem.Request, now sim.Cycle)

	stats DirStats
}

// dirTableSlots and dirTxns are a bank's table size and record slab
// size before their first growth.
const (
	dirTableSlots = 1024
	dirTxns       = 64
)

func newDirectory(f *Fabric, id, node int, mc cache.Port) *Directory {
	d := &Directory{
		endpoint: endpoint{f: f, node: node},
		id:       id,
		lines:    newDirTable(f.cfg.Cores, dirTableSlots, dirTxns, f.cfg.LineBytes),
		lookups:  sim.NewDelay[*message](sim.Cycle(f.cfg.DirLatency)),
		toMC:     cache.NewOutbox(mc),
	}
	// Tick moves at most one message a cycle into the pipe and first
	// empties it of what is due, so it never holds more than a latency's
	// worth of pushes and the one just made.
	d.lookups.Reserve(f.cfg.DirLatency + 1)
	d.onMemRead = d.memReadDone
	return d
}

// Stats returns the counters.
func (d *Directory) Stats() *DirStats { return &d.stats }

// EntryState reports a line's directory state ("I" when absent) — test
// hook for the protocol suite.
func (d *Directory) EntryState(line mem.Addr) string {
	if i := d.lines.find(line); i >= 0 {
		return d.lines.state(i).String()
	}
	return "I"
}

// recv queues a delivered protocol message and stamps the requester's
// lifecycle with its arrival at the directory.
func (d *Directory) recv(m *message, now sim.Cycle) {
	// Arrival counters live here rather than in the handlers so a
	// deferred-and-replayed request is counted once.
	switch m.kind {
	case mGetS:
		d.stats.GetS++
		m.tag.NocArrive(now)
	case mGetM:
		d.stats.GetM++
		m.tag.NocArrive(now)
	case mPutM:
		if m.clean {
			d.stats.PutE++
		} else {
			d.stats.PutM++
		}
	}
	d.endpoint.recv(m, now)
}

// Tick processes the lookups that fall due, pops at most one inbox
// message (the bank's serialization point) into the pipelined lookup, and
// retries rejected injections and memory submissions, each queue head
// first until one is refused.
func (d *Directory) Tick(now sim.Cycle) {
	for m, at, ok := d.lookups.Pop(now); ok; m, at, ok = d.lookups.Pop(now) {
		d.process(m, at)
	}
	if h := d.inbox.Pop(); h != nil {
		d.lookups.Push(now, h.Body)
	}
	d.retry(now)
	d.toMC.Retry(now)
	d.sleep(now, d.toMC.Len() > 0, d.lookups.NextAt())
}

// memRead issues the protocol's memory read for a busy entry. The
// requester's attribution tag rides along, so the controller and DRAM
// stamp the same lifecycle they would in the shared-L2 hierarchy.
func (d *Directory) memRead(m *message, now sim.Cycle) {
	d.stats.MemReads++
	r := d.f.ids.NewRequest()
	r.Kind = mem.Read
	r.Addr = m.line
	r.Line = m.line
	r.Core = m.Src
	r.Born = now
	r.Attrib = m.tag
	r.OnDone = d.onMemRead
	d.toMC.Send(r, now)
}

// memWrite issues a protocol writeback (PutM data, FwdGetS demotion
// data, or an orphan write) to memory.
func (d *Directory) memWrite(line mem.Addr, now sim.Cycle) {
	d.stats.MemWrites++
	d.toMC.Send(d.f.ids.Writeback(line, -1, now), now)
}

// memReadDone completes a trBusyMem* entry: grant the data and settle.
func (d *Directory) memReadDone(r *mem.Request, now sim.Cycle) {
	line, t := r.Line, &d.lines
	i := t.find(line)
	if i < 0 || (t.state(i) != trBusyMemS && t.state(i) != trBusyMemM) {
		panic(fmt.Sprintf("coherence: dir%d memory read for line %#x in state %s", d.id, uint64(line), d.EntryState(line)))
	}
	rec := t.txn(i)
	req := rec.req
	rec.req = nil
	switch t.state(i) {
	case trBusyMemS:
		if t.sharerCount(i) == 0 {
			// No sharers: MESI's E grant. Tracked as ownership.
			d.stats.DataE++
			t.setState(i, dirM)
			t.setOwner(i, req.Src)
			grant := d.f.newMsg(mDataE, line, d.node)
			grant.tag = req.tag
			d.inject(grant, req.Src, now)
		} else {
			d.stats.DataS++
			t.setState(i, dirS)
			t.setSharer(i, req.Src)
			grant := d.f.newMsg(mData, line, d.node)
			grant.tag = req.tag
			d.inject(grant, req.Src, now)
		}
	case trBusyMemM:
		d.stats.DataE++
		t.setState(i, dirM)
		t.setOwner(i, req.Src)
		t.clearSharers(i)
		grant := d.f.newMsg(mDataE, line, d.node)
		grant.excl = true
		grant.tag = req.tag
		d.inject(grant, req.Src, now)
	}
	d.f.putMsg(req)
	d.settle(line, now)
}

// settle replays deferred requests, oldest first, for as long as the
// line stays stable, then closes the line's record and reclaims an entry
// that ends up Invalid. One replay is not enough: a GetM replayed
// against dirM is forwarded and forgotten, leaving the line stable
// without another settle ever coming, so whatever queued behind it
// would wait forever. The entry is looked up afresh each round because
// a replay may remove it.
func (d *Directory) settle(line mem.Addr, now sim.Cycle) {
	t := &d.lines
	for {
		i := t.find(line)
		if i < 0 || t.state(i).busy() {
			return
		}
		rec := t.txn(i)
		if rec == nil || rec.deferred.Len() == 0 {
			if rec != nil {
				t.closeTxn(i)
			}
			if t.state(i) == dirI {
				t.remove(i)
			}
			return
		}
		d.process(rec.deferred.Pop().Body, now)
	}
}

// process handles one protocol message at this bank. Every handler works
// on the one line m names, by its slot i (-1 when the line has no
// entry), and reads the entry through the slot until the line is
// inserted or settled: no handler holds an entry across another line's
// insert or removal.
func (d *Directory) process(m *message, now sim.Cycle) {
	i := d.lines.find(m.line)
	switch m.kind {
	case mGetS:
		d.getS(m, i, now)
	case mGetM:
		d.getM(m, i, now)
	case mPutM:
		d.putM(m, i, now)
	case mInvAck:
		d.invAck(m, i, now)
	case mWBData:
		d.wbData(m, i, now)
	default:
		panic(fmt.Sprintf("coherence: dir%d received %s", d.id, m.kind))
	}
}

// defer_ parks a request behind the busy line in slot i.
func (d *Directory) defer_(m *message, i int) {
	d.stats.Deferred++
	d.lines.openTxn(i).deferred.Push(&m.Header, &m.Link)
}

// entryFor returns the slot a request against line starts from: i, or,
// when the line has no entry, a fresh one at dirI.
func (d *Directory) entryFor(line mem.Addr, i int) int {
	if i < 0 {
		i = d.lines.insert(line)
	}
	return i
}

func (d *Directory) getS(m *message, i int, now sim.Cycle) {
	i, t := d.entryFor(m.line, i), &d.lines
	switch s := t.state(i); {
	case s == dirI:
		t.begin(i, trBusyMemS, m)
		d.memRead(m, now)
	case s.busy():
		d.defer_(m, i)
	case s == dirS:
		// Memory is clean in S; the data still comes from DRAM.
		t.begin(i, trBusyMemS, m)
		d.memRead(m, now)
	case s == dirM:
		d.stats.FwdGetS++
		t.begin(i, trBusyFwdS, m)
		fwd := d.f.newMsg(mFwdGetS, m.line, d.node)
		fwd.requester = m.Src
		fwd.tag = m.tag
		d.inject(fwd, t.owner(i), now)
	}
}

func (d *Directory) getM(m *message, i int, now sim.Cycle) {
	i, t := d.entryFor(m.line, i), &d.lines
	switch s := t.state(i); {
	case s == dirI:
		t.begin(i, trBusyMemM, m)
		d.memRead(m, now)
	case s.busy():
		d.defer_(m, i)
	case s == dirS:
		wasSharer := t.isSharer(i, m.Src)
		others := t.sharerCount(i)
		if wasSharer {
			others--
		}
		if others == 0 {
			// Sole sharer upgrading: grant immediately.
			d.grantAckM(m, i, now)
			d.settle(m.line, now)
			return
		}
		rec := t.begin(i, trBusyInv, m)
		rec.reqWasSharer = wasSharer
		rec.acksLeft = int32(others)
		// The sharers in ascending core order, word by word.
		for w := 0; w <= t.extra; w++ {
			for set := *t.word(i, w); set != 0; set &= set - 1 {
				if c := 64*w + bits.TrailingZeros64(set); c != m.Src {
					d.stats.InvSent++
					inv := d.f.newMsg(mInv, m.line, d.node)
					d.inject(inv, c, now)
				}
			}
		}
	case s == dirM:
		// Forward-and-forget: ownership moves to the requester now;
		// the old owner serves the data (from cache or its writeback
		// buffer) without further directory involvement.
		d.stats.FwdGetM++
		fwd := d.f.newMsg(mFwdGetM, m.line, d.node)
		fwd.requester = m.Src
		fwd.tag = m.tag
		d.inject(fwd, t.owner(i), now)
		t.setOwner(i, m.Src)
		d.f.putMsg(m)
	}
}

// grantAckM upgrades a sharer to owner without a data transfer.
func (d *Directory) grantAckM(m *message, i int, now sim.Cycle) {
	d.stats.AckM++
	d.lines.setState(i, dirM)
	d.lines.setOwner(i, m.Src)
	d.lines.clearSharers(i)
	ack := d.f.newMsg(mAckM, m.line, d.node)
	ack.tag = m.tag
	d.inject(ack, m.Src, now)
	d.f.putMsg(m)
}

func (d *Directory) putM(m *message, i int, now sim.Cycle) {
	t, s := &d.lines, dirI // an absent line is I
	if i >= 0 {
		s = t.state(i)
	}
	owned := (s == dirM || s == trBusyFwdS) && t.owner(i) == m.Src
	switch {
	case owned && s == dirM:
		// The owner's eviction: write the data, retire the line.
		if !m.clean {
			d.memWrite(m.line, now)
		}
		t.setState(i, dirI)
		d.ackWB(m, now)
		d.settle(m.line, now)
	case owned:
		// Writeback race: our FwdGetS crossed the owner's eviction.
		// The owner serves the requester from its writeback buffer,
		// and this PutM doubles as the demotion data — the evicted
		// owner keeps no copy, so only the requester shares.
		d.stats.WBRaces++
		if !m.clean {
			d.memWrite(m.line, now)
		}
		rec := t.txn(i)
		req := rec.req
		rec.req = nil
		t.setState(i, dirS)
		t.clearSharers(i)
		t.setSharer(i, req.Src)
		d.f.putMsg(req)
		d.ackWB(m, now)
		d.settle(m.line, now)
	case s.busy():
		d.defer_(m, i)
	default:
		// Stale PutM: the sender lost ownership before the eviction
		// arrived (a forward beat it) or never had it (an orphan L1
		// writeback). With no newer owner the data is still the
		// freshest copy, so it reaches memory; under dirM the new
		// owner's copy supersedes it and the data is dropped.
		d.stats.StalePutM++
		if !m.clean && s != dirM {
			d.memWrite(m.line, now)
		}
		d.ackWB(m, now)
	}
}

// ackWB acknowledges a PutM/PutE so the sender retires its
// writeback-buffer entry, then releases the message.
func (d *Directory) ackWB(m *message, now sim.Cycle) {
	ack := d.f.newMsg(mWBAck, m.line, d.node)
	d.inject(ack, m.Src, now)
	d.f.putMsg(m)
}

func (d *Directory) invAck(m *message, i int, now sim.Cycle) {
	d.stats.InvAcks++
	if i < 0 || d.lines.state(i) != trBusyInv {
		panic(fmt.Sprintf("coherence: dir%d InvAck for line %#x in state %s", d.id, uint64(m.line), d.EntryState(m.line)))
	}
	d.f.putMsg(m)
	rec := d.lines.txn(i)
	rec.acksLeft--
	if rec.acksLeft > 0 {
		return
	}
	req := rec.req
	if rec.reqWasSharer {
		// The requester held the data in S all along: upgrade.
		rec.req = nil
		d.grantAckM(req, i, now)
		d.settle(m.line, now)
		return
	}
	// The requester never had the data (its S copy was evicted, or it
	// never shared): fetch it from memory.
	d.lines.setState(i, trBusyMemM)
	d.memRead(req, now)
}

func (d *Directory) wbData(m *message, i int, now sim.Cycle) {
	t := &d.lines
	if i < 0 || t.state(i) != trBusyFwdS {
		panic(fmt.Sprintf("coherence: dir%d WBData for line %#x in state %s", d.id, uint64(m.line), d.EntryState(m.line)))
	}
	if m.dirty {
		d.memWrite(m.line, now)
	}
	rec := t.txn(i)
	req := rec.req
	rec.req = nil
	t.setState(i, dirS)
	t.clearSharers(i)
	t.setSharer(i, m.Src)       // the demoted owner keeps an S copy
	t.setSharer(i, m.requester) // the requester got the data cache-to-cache
	d.f.putMsg(req)
	d.f.putMsg(m)
	d.settle(m.line, now)
}
