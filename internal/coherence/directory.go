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
// on, at dirI, until settle has replayed them.
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

	// lines holds an entry for every line away from Invalid: a bank
	// tracks thousands of them.
	lines dirTable

	lookups *sim.Delay[*message] // popped from the inbox, in the pipelined lookup
	toMC    cache.Outbox         // the protocol's memory reads and writes

	onMemRead func(r *mem.Request, now sim.Cycle)

	stats DirStats
}

// dirTableSlots is a bank's table size before its first growth.
const dirTableSlots = 1024

func newDirectory(f *Fabric, id, node int, mc cache.Port) *Directory {
	d := &Directory{
		endpoint: endpoint{f: f, node: node},
		id:       id,
		lines:    newDirTable(f.cfg.Cores, dirTableSlots),
		lookups:  sim.NewDelay[*message](sim.Cycle(f.cfg.DirLatency)),
		toMC:     cache.NewOutbox(mc),
	}
	d.onMemRead = d.memReadDone
	return d
}

// Stats returns the counters.
func (d *Directory) Stats() *DirStats { return &d.stats }

// EntryState reports a line's directory state ("I" when absent) — test
// hook for the protocol suite.
func (d *Directory) EntryState(line mem.Addr) string {
	if e := d.lines.entry(d.lines.find(line)); e != nil {
		return e.state.String()
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
	if m, ok := d.inbox.Pop(); ok {
		d.lookups.Push(now, m)
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
	r.Core = m.from
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
	line := r.Line
	i := d.lines.find(line)
	e := d.lines.entry(i)
	if e == nil || (e.state != trBusyMemS && e.state != trBusyMemM) {
		panic(fmt.Sprintf("coherence: dir%d memory read for line %#x in state %s", d.id, uint64(line), d.EntryState(line)))
	}
	req := e.req
	e.req = nil
	switch e.state {
	case trBusyMemS:
		if d.lines.sharerCount(i) == 0 {
			// No sharers: MESI's E grant. Tracked as ownership.
			d.stats.DataE++
			e.state = dirM
			e.owner = req.from
			grant := d.f.newMsg(mDataE, line, d.node)
			grant.tag = req.tag
			d.inject(grant, req.from, now)
		} else {
			d.stats.DataS++
			e.state = dirS
			d.lines.setSharer(i, req.from)
			grant := d.f.newMsg(mData, line, d.node)
			grant.tag = req.tag
			d.inject(grant, req.from, now)
		}
	case trBusyMemM:
		d.stats.DataE++
		e.state = dirM
		e.owner = req.from
		d.lines.clearSharers(i)
		grant := d.f.newMsg(mDataE, line, d.node)
		grant.excl = true
		grant.tag = req.tag
		d.inject(grant, req.from, now)
	}
	d.f.putMsg(req)
	d.settle(line, now)
}

// settle replays deferred requests, oldest first, for as long as the
// line stays stable, and reclaims an entry that ends up Invalid with
// nothing queued. One replay is not enough: a GetM replayed against
// dirM is forwarded and forgotten, leaving the line stable without
// another settle ever coming, so whatever queued behind it would wait
// forever. The entry is looked up afresh each round because a replay
// may remove it.
func (d *Directory) settle(line mem.Addr, now sim.Cycle) {
	for {
		i := d.lines.find(line)
		e := d.lines.entry(i)
		if e == nil || e.state.busy() {
			return
		}
		if len(e.deferred) == 0 {
			if e.state == dirI {
				d.lines.remove(i)
			}
			return
		}
		m := e.deferred[0]
		copy(e.deferred, e.deferred[1:])
		e.deferred[len(e.deferred)-1] = nil
		e.deferred = e.deferred[:len(e.deferred)-1]
		d.process(m, now)
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

// defer_ parks a request behind a busy line.
func (d *Directory) defer_(m *message, e *dirEntry) {
	d.stats.Deferred++
	e.deferred = append(e.deferred, m)
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
	e := &d.lines.slots[d.entryFor(m.line, i)]
	switch {
	case e.state == dirI:
		e.state = trBusyMemS
		e.req = m
		d.memRead(m, now)
	case e.state.busy():
		d.defer_(m, e)
	case e.state == dirS:
		// Memory is clean in S; the data still comes from DRAM.
		e.state = trBusyMemS
		e.req = m
		d.memRead(m, now)
	case e.state == dirM:
		d.stats.FwdGetS++
		e.state = trBusyFwdS
		e.req = m
		fwd := d.f.newMsg(mFwdGetS, m.line, d.node)
		fwd.requester = m.from
		fwd.tag = m.tag
		d.inject(fwd, e.owner, now)
	}
}

func (d *Directory) getM(m *message, i int, now sim.Cycle) {
	i = d.entryFor(m.line, i)
	e := &d.lines.slots[i]
	switch {
	case e.state == dirI:
		e.state = trBusyMemM
		e.req = m
		d.memRead(m, now)
	case e.state.busy():
		d.defer_(m, e)
	case e.state == dirS:
		wasSharer := d.lines.isSharer(i, m.from)
		others := d.lines.sharerCount(i)
		if wasSharer {
			others--
		}
		if others == 0 {
			// Sole sharer upgrading: grant immediately.
			d.grantAckM(m, i, now)
			d.settle(m.line, now)
			return
		}
		e.state = trBusyInv
		e.req = m
		e.reqWasSharer = wasSharer
		e.acksLeft = int32(others)
		// The sharers in ascending core order, word by word.
		for w := 0; w <= d.lines.extra; w++ {
			for set := *d.lines.word(i, w); set != 0; set &= set - 1 {
				if c := 64*w + bits.TrailingZeros64(set); c != m.from {
					d.stats.InvSent++
					inv := d.f.newMsg(mInv, m.line, d.node)
					d.inject(inv, c, now)
				}
			}
		}
	case e.state == dirM:
		// Forward-and-forget: ownership moves to the requester now;
		// the old owner serves the data (from cache or its writeback
		// buffer) without further directory involvement.
		d.stats.FwdGetM++
		fwd := d.f.newMsg(mFwdGetM, m.line, d.node)
		fwd.requester = m.from
		fwd.tag = m.tag
		d.inject(fwd, e.owner, now)
		e.owner = m.from
		d.f.putMsg(m)
	}
}

// grantAckM upgrades a sharer to owner without a data transfer.
func (d *Directory) grantAckM(m *message, i int, now sim.Cycle) {
	d.stats.AckM++
	e := &d.lines.slots[i]
	e.state = dirM
	e.owner = m.from
	d.lines.clearSharers(i)
	ack := d.f.newMsg(mAckM, m.line, d.node)
	ack.tag = m.tag
	d.inject(ack, m.from, now)
	d.f.putMsg(m)
}

func (d *Directory) putM(m *message, i int, now sim.Cycle) {
	e := d.lines.entry(i)
	switch {
	case e != nil && e.state == dirM && e.owner == m.from:
		// The owner's eviction: write the data, retire the line.
		if !m.clean {
			d.memWrite(m.line, now)
		}
		e.state = dirI
		e.owner = -1
		d.ackWB(m, now)
		d.settle(m.line, now)
	case e != nil && e.state == trBusyFwdS && e.owner == m.from:
		// Writeback race: our FwdGetS crossed the owner's eviction.
		// The owner serves the requester from its writeback buffer,
		// and this PutM doubles as the demotion data — the evicted
		// owner keeps no copy, so only the requester shares.
		d.stats.WBRaces++
		if !m.clean {
			d.memWrite(m.line, now)
		}
		req := e.req
		e.req = nil
		e.state = dirS
		e.owner = -1
		d.lines.clearSharers(i)
		d.lines.setSharer(i, req.from)
		d.f.putMsg(req)
		d.ackWB(m, now)
		d.settle(m.line, now)
	case e != nil && e.state.busy():
		d.defer_(m, e)
	default:
		// Stale PutM: the sender lost ownership before the eviction
		// arrived (a forward beat it) or never had it (an orphan L1
		// writeback). With no newer owner the data is still the
		// freshest copy, so it reaches memory; under dirM the new
		// owner's copy supersedes it and the data is dropped.
		d.stats.StalePutM++
		if !m.clean && (e == nil || e.state != dirM) {
			d.memWrite(m.line, now)
		}
		d.ackWB(m, now)
	}
}

// ackWB acknowledges a PutM/PutE so the sender retires its
// writeback-buffer entry, then releases the message.
func (d *Directory) ackWB(m *message, now sim.Cycle) {
	ack := d.f.newMsg(mWBAck, m.line, d.node)
	d.inject(ack, m.from, now)
	d.f.putMsg(m)
}

func (d *Directory) invAck(m *message, i int, now sim.Cycle) {
	d.stats.InvAcks++
	e := d.lines.entry(i)
	if e == nil || e.state != trBusyInv {
		panic(fmt.Sprintf("coherence: dir%d InvAck for line %#x in state %s", d.id, uint64(m.line), d.EntryState(m.line)))
	}
	d.f.putMsg(m)
	e.acksLeft--
	if e.acksLeft > 0 {
		return
	}
	req := e.req
	if e.reqWasSharer {
		// The requester held the data in S all along: upgrade.
		e.req = nil
		d.grantAckM(req, i, now)
		d.settle(m.line, now)
		return
	}
	// The requester never had the data (its S copy was evicted, or it
	// never shared): fetch it from memory.
	e.state = trBusyMemM
	d.memRead(req, now)
}

func (d *Directory) wbData(m *message, i int, now sim.Cycle) {
	e := d.lines.entry(i)
	if e == nil || e.state != trBusyFwdS {
		panic(fmt.Sprintf("coherence: dir%d WBData for line %#x in state %s", d.id, uint64(m.line), d.EntryState(m.line)))
	}
	if m.dirty {
		d.memWrite(m.line, now)
	}
	req := e.req
	e.req = nil
	e.state = dirS
	d.lines.clearSharers(i)
	d.lines.setSharer(i, m.from)      // the demoted owner keeps an S copy
	d.lines.setSharer(i, m.requester) // the requester got the data cache-to-cache
	e.owner = -1
	d.f.putMsg(req)
	d.f.putMsg(m)
	d.settle(m.line, now)
}
