package coherence

import (
	"fmt"

	"stackedsim/internal/attrib"
	"stackedsim/internal/cache"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

// pstate is a line's stable MESI state in a private L2, kept in the
// state byte of the line's way in the array. A line the array does not
// hold is I.
type pstate uint8

const (
	psShared pstate = iota + 1
	psExcl
	psModified
)

// pl2Miss is one outstanding miss (the private L2's MSHR entry): a
// GetS or GetM in flight, holding the L1 requests that wait on it.
type pl2Miss struct {
	line     mem.Addr
	excl     bool // a GetM is outstanding
	wantExcl bool // a store merged in after the GetS left; chase M after the fill
	dirtyWB  bool // an L1 writeback merged in; the fill installs modified
	// noInstall: an invalidation crossed the in-flight fill (the
	// directory granted us the line, then a writer claimed the epoch
	// before the data landed). Serve the waiters once, install nothing.
	noInstall bool
	// fwd holds a forward that arrived before our own fill: the
	// directory chains ownership forward-and-forget, so a FwdGetS/M
	// can reach us while the data is still in flight from the old
	// owner. Replayed after the fill installs. The directory serializes
	// per line, so one is the most a miss can hold.
	fwd *message
	// waiters are the L1 requests parked on the miss, in arrival order.
	waiters sim.List[*mem.Request]
}

// wbEntry is one eviction held in the writeback buffer: a PutM/PutE in
// flight awaiting the directory's WBAck. Until the ack arrives the
// entry can serve a racing forward on the directory's behalf.
type wbEntry struct {
	dirty bool
	// redirty: an orphan L1 writeback landed while a clean PutE was in
	// flight; re-send a dirty PutM once the ack retires this entry.
	redirty bool
}

// PL2Stats counts private-L2 events.
type PL2Stats struct {
	Accesses     uint64
	Hits         uint64
	DemandMisses uint64
	Merges       uint64
	MSHRStalls   uint64
	WritebacksIn uint64
	OrphanWB     uint64 // L1 writeback for a line this L2 no longer holds
	Upgrades     uint64 // GetM issued with the data already held in S
	InvRecv      uint64
	FwdServed    uint64 // forwards served from the cache
	FwdFromWB    uint64 // forwards served from the writeback buffer (race)
	EvictShared  uint64 // silent S evictions
	EvictOwned   uint64 // E/M evictions (PutE/PutM)
}

// PrivateL2 is one core's private second-level cache: a MESI cache
// controller implementing cache.Port toward the core's L1s and speaking
// the directory protocol over the mesh. Hits complete after the
// configured latency; misses allocate a bounded miss table entry and
// send GetS/GetM to the line's home directory.
type PrivateL2 struct {
	endpoint
	id  int // core == mesh node
	arr *cache.Array
	cap int // miss table bound

	// hits are the hits on their way back to the L1, a fixed-latency
	// pipe threaded through the requests: each is stamped with the cycle
	// it hit (Request.Issued) and is ready hitLat cycles later. Hits
	// arrive in cycle order, so the head is the first ready.
	hits   sim.List[*mem.Request]
	hitLat sim.Cycle

	misses cache.MissTable[pl2Miss] // entries from the fabric's pool
	wb     map[mem.Addr]wbEntry

	// dl1/il1 are the L1s stacked above, invalidated alongside this
	// cache on protocol actions. Set via SetL1s after construction.
	dl1, il1 *cache.L1

	stats PL2Stats
}

func newPrivateL2(f *Fabric, id int) *PrivateL2 {
	cfg := f.cfg
	p := &PrivateL2{
		endpoint: endpoint{f: f, node: id},
		id:       id,
		arr:      cache.NewArrayBySize(fmt.Sprintf("pl2.%d", id), cfg.PrivL2KB*1024, cfg.PrivL2Ways, cfg.LineBytes),
		cap:      cfg.PrivL2MSHRs,
		hitLat:   sim.Cycle(cfg.PrivL2Latency),
		misses:   cache.NewMissTable[pl2Miss](cfg.PrivL2MSHRs),
		wb:       make(map[mem.Addr]wbEntry),
	}
	return p
}

// SetL1s attaches the L1s whose copies this controller invalidates on
// coherence actions.
func (p *PrivateL2) SetL1s(dl1, il1 *cache.L1) { p.dl1, p.il1 = dl1, il1 }

// Stats returns the counters.
func (p *PrivateL2) Stats() *PL2Stats { return &p.stats }

// State reports a line's stable state (0 = Invalid).
func (p *PrivateL2) State(line mem.Addr) pstate { return pstate(p.arr.State(line)) }

// setState moves a resident line to another stable state.
func (p *PrivateL2) setState(line mem.Addr, st pstate) { p.arr.SetState(line, uint8(st)) }

// OutstandingMisses reports live miss-table entries — test hook.
func (p *PrivateL2) OutstandingMisses() int { return p.misses.Len() }

// WritebacksInFlight reports writeback-buffer entries — test hook.
func (p *PrivateL2) WritebacksInFlight() int { return len(p.wb) }

// newMiss returns a recycled (or fresh) miss entry from the fabric's
// pool.
func (p *PrivateL2) newMiss(line mem.Addr, excl bool) *pl2Miss {
	m := p.f.misses.Get()
	*m = pl2Miss{line: line, excl: excl}
	return m
}

// Submit accepts a request from an L1 (cache.Port). False means the
// miss table is full and the L1 must retry — the backpressure path.
func (p *PrivateL2) Submit(r *mem.Request, now sim.Cycle) bool {
	if r.Kind == mem.Writeback {
		return p.submitWB(r, now)
	}
	p.stats.Accesses++
	line := r.Line
	var deny pstate // a load: any copy serves
	if r.Excl {
		deny = psShared // a store needs E or M
	}
	st, hit := p.arr.Grant(line, uint8(deny))
	if hit {
		// Hit with sufficient permission. An exclusive copy a store
		// touches becomes modified now; the write is coming.
		if r.Excl && pstate(st) != psModified {
			p.setState(line, psModified)
		}
		p.stats.Hits++
		r.Issued = now
		p.hits.Push(r, &r.Link)
		p.handle.Wake()
		return true
	}
	// Miss — or an upgrade: data in hand (S) but a store needs M.
	if m := p.misses.Find(line); m != nil {
		p.stats.Merges++
		if r.Excl {
			m.wantExcl = true
		}
		if r.Attrib == nil && r.Kind.IsDemand() && r.Core >= 0 {
			r.Attrib = p.f.attrib.NewTag(now, r.Core)
			r.Attrib.MarkMerged()
		}
		m.waiters.Push(r, &r.Link)
		return true
	}
	if _, ok := p.wb[line]; ok {
		// The line's eviction has not been acknowledged yet. A new
		// GetS/GetM now would race the in-flight PutM at the directory
		// and let the ack retire a line we just re-acquired — hold the
		// request back until the writeback buffer drains.
		if r.Kind == mem.Prefetch {
			r.Dropped = true
			r.Complete(now)
			return true
		}
		return false
	}
	if p.misses.Len() >= p.cap {
		if r.Kind == mem.Prefetch {
			r.Dropped = true
			r.Complete(now)
			return true
		}
		p.stats.MSHRStalls++
		return false
	}
	if r.Kind.IsDemand() && r.Core >= 0 {
		p.stats.DemandMisses++
	}
	excl := r.Excl
	if excl && pstate(st) == psShared {
		p.stats.Upgrades++
	}
	if r.Attrib == nil && r.Kind.IsDemand() && r.Core >= 0 {
		r.Attrib = p.f.attrib.NewTag(now, r.Core)
	}
	r.Attrib.Alloc(now)
	m := p.newMiss(line, excl)
	m.waiters.Push(r, &r.Link)
	p.misses.Add(line, m)
	p.sendRequest(m, r.Attrib, now)
	return true
}

// submitWB absorbs an L1 dirty eviction. The write must never be lost:
// it merges into an in-flight miss, marks an owned line modified,
// chases ownership when the line is only shared, or passes through to
// the directory as an orphan PutM when the line is long gone.
func (p *PrivateL2) submitWB(r *mem.Request, now sim.Cycle) bool {
	p.stats.WritebacksIn++
	line := r.Line
	if m := p.misses.Find(line); m != nil {
		m.dirtyWB = true
		if !m.excl {
			m.wantExcl = true
		}
		r.Complete(now)
		return true
	}
	switch p.State(line) {
	case psModified:
		// Already dirty here; the L1 copy folds in.
	case psExcl:
		p.setState(line, psModified)
	case psShared:
		// Shared with dirty data above: chase ownership, holding the
		// write in the miss entry. A full miss table pushes back — the
		// L1 retries rather than dropping the write.
		if p.misses.Len() >= p.cap {
			p.stats.WritebacksIn-- // retried: do not double count
			return false
		}
		p.stats.Upgrades++
		m := p.newMiss(line, true)
		m.dirtyWB = true
		p.misses.Add(line, m)
		p.sendRequest(m, nil, now)
	default:
		// Orphan: this L2 evicted the line while the L1 kept a dirty
		// copy. Pass the write through to the home directory.
		p.stats.OrphanWB++
		if w, ok := p.wb[line]; ok {
			// An eviction for the same line is still in flight; if it
			// carried no data, send a dirty PutM after its ack.
			if !w.dirty {
				w.redirty = true
				p.wb[line] = w
			}
		} else {
			p.sendPutM(line, true, now)
		}
	}
	r.Complete(now)
	return true
}

// StoreHint is the L1's notification of a store that completed inside
// the L1 (hit or merge). Exclusive copies upgrade silently; shared
// copies chase ownership in the background, best-effort — the
// writeback path is the safety net if no miss slot is free.
func (p *PrivateL2) StoreHint(line mem.Addr, now sim.Cycle) {
	switch p.State(line) {
	case psExcl:
		p.setState(line, psModified)
	case psShared:
		if m := p.misses.Find(line); m != nil {
			m.wantExcl = true
			return
		}
		if p.misses.Len() >= p.cap {
			return
		}
		p.stats.Upgrades++
		m := p.newMiss(line, true)
		m.dirtyWB = true // the L1 copy is dirty the moment the hint fires
		p.misses.Add(line, m)
		p.sendRequest(m, nil, now)
	}
}

// sendRequest injects the GetS/GetM for a fresh miss toward the line's
// home directory.
func (p *PrivateL2) sendRequest(m *pl2Miss, tag *attrib.Tag, now sim.Cycle) {
	kind := mGetS
	if m.excl {
		kind = mGetM
	}
	msg := p.f.newMsg(kind, m.line, p.id)
	msg.tag = tag
	p.inject(msg, p.f.homeDir(m.line).node, now)
}

// sendPutM evicts an owned (or orphaned) line: PutM with data when
// dirty, PutE otherwise, held in the writeback buffer until WBAck.
func (p *PrivateL2) sendPutM(line mem.Addr, dirty bool, now sim.Cycle) {
	p.wb[line] = wbEntry{dirty: dirty}
	msg := p.f.newMsg(mPutM, line, p.id)
	msg.clean = !dirty
	p.inject(msg, p.f.homeDir(line).node, now)
}

// Tick completes the hits that fall due, drains the inbox, and retries
// rejected injections, head first until one is refused.
func (p *PrivateL2) Tick(now sim.Cycle) {
	for r := p.hits.Head(); r != nil && r.Issued+p.hitLat <= now; r = p.hits.Head() {
		p.hits.Pop()
		r.Complete(r.Issued + p.hitLat)
	}
	for h := p.inbox.Pop(); h != nil; h = p.inbox.Pop() {
		p.process(h.Body, now)
	}
	p.retry(now)
	next := sim.FarFuture
	if r := p.hits.Head(); r != nil {
		next = r.Issued + p.hitLat
	}
	p.sleep(now, false, next)
}

// process handles one protocol message addressed to this cache.
func (p *PrivateL2) process(m *message, now sim.Cycle) {
	switch m.kind {
	case mData, mDataE, mDataOwner:
		p.fill(m, now)
	case mAckM:
		p.ackM(m, now)
	case mWBAck:
		p.wbAck(m, now)
	case mInv:
		p.invalidate(m, now)
	case mFwdGetS, mFwdGetM:
		// The directory chains ownership forward-and-forget, so a
		// forward can arrive before the data that makes us owner (our
		// fill rides a different source node and the mesh only orders
		// per source-destination pair). Hold it on the miss until the
		// fill lands.
		if st := p.State(m.line); st != psExcl && st != psModified {
			if _, wbOK := p.wb[m.line]; !wbOK {
				if ms := p.misses.Find(m.line); ms != nil {
					if ms.fwd != nil {
						panic(fmt.Sprintf("coherence: a second forward (%s after %s) for line %#x held at core %d", m.kind, ms.fwd.kind, uint64(m.line), p.id))
					}
					ms.fwd = m
					return // m stays alive; replayed after the fill
				}
			}
		}
		if m.kind == mFwdGetS {
			p.fwdGetS(m, now)
		} else {
			p.fwdGetM(m, now)
		}
	default:
		panic(fmt.Sprintf("coherence: private L2 %d received %s", p.id, m.kind))
	}
	p.f.putMsg(m)
}

// fill completes a miss with arriving data: install the line in its
// granted state, evict the victim, wake the waiters.
func (p *PrivateL2) fill(m *message, now sim.Cycle) {
	line := m.line
	miss := p.misses.Remove(line)
	if miss == nil {
		panic(fmt.Sprintf("coherence: %s for line %#x with no miss at core %d", m.kind, uint64(line), p.id))
	}

	st := psShared
	switch m.kind {
	case mDataE:
		st = psExcl
		if m.excl {
			st = psModified // exclusive grant for a store
		}
	case mDataOwner:
		if m.excl {
			st = psModified
		}
	}
	// A store that merged while the GetS was in flight — or an L1
	// writeback — claims an exclusive grant silently (E→M needs no
	// message); a shared grant needs a follow-up upgrade.
	if (miss.wantExcl || miss.dirtyWB) && st == psExcl {
		st = psModified
	}
	if miss.dirtyWB {
		st = psModified
	}
	if miss.noInstall && st == psShared {
		// An invalidation crossed a shared grant: the waiters read the
		// data once (loads order before the invalidation), nothing
		// installs, and the L1 copy the completions leave behind is
		// scrubbed — a store that raced in departs as an orphan
		// writeback for the stale-PutM rule. An ownership grant
		// (E/M) is necessarily from a newer epoch than the Inv and
		// installs normally.
		p.finishWaiters(m.tag, miss, now)
		if _, dirty := p.dl1.InvalidateLine(line); dirty {
			p.stats.OrphanWB++
			p.sendPutM(line, true, now)
		}
		p.il1.InvalidateLine(line)
		p.replayFwd(miss, now)
		p.f.misses.Put(miss)
		return
	}
	p.install(line, st, now)
	p.finishWaiters(m.tag, miss, now)
	if st == psShared && miss.wantExcl {
		// The grant was only S but a store already happened above:
		// chase ownership in the background (best-effort; the L1
		// writeback path is the safety net).
		p.StoreHint(line, now)
	}
	p.replayFwd(miss, now)
	p.f.misses.Put(miss)
}

// replayFwd replays the forward, if any, that arrived before the fill
// it depends on.
func (p *PrivateL2) replayFwd(miss *pl2Miss, now sim.Cycle) {
	if fm := miss.fwd; fm != nil {
		miss.fwd = nil
		p.process(fm, now)
	}
}

// ackM completes an upgrade: the data was already here in S.
func (p *PrivateL2) ackM(m *message, now sim.Cycle) {
	miss := p.misses.Remove(m.line)
	if miss == nil {
		panic(fmt.Sprintf("coherence: AckM for line %#x with no miss at core %d", uint64(m.line), p.id))
	}
	p.install(m.line, psModified, now)
	p.finishWaiters(m.tag, miss, now)
	p.replayFwd(miss, now)
	p.f.misses.Put(miss)
}

// install places a line in the array in state st (if capacity evicted it
// since the request left, it is simply re-installed).
func (p *PrivateL2) install(line mem.Addr, st pstate, now sim.Cycle) {
	if p.arr.Lookup(line) {
		p.setState(line, st)
		return
	}
	victim, vst, evicted := p.arr.FillState(line, st == psModified, uint8(st))
	if evicted {
		p.evict(victim, pstate(vst), now)
	}
}

// evict handles a capacity victim the array gave up in state vst: silent
// for shared lines, PutE/PutM through the writeback buffer for owned ones.
// The L1 copies go too — a dirty L1 copy folds its data into the departing
// writeback.
func (p *PrivateL2) evict(victim mem.Addr, vst pstate, now sim.Cycle) {
	_, l1Dirty := p.dl1.InvalidateLine(victim)
	p.il1.InvalidateLine(victim)
	dirty := vst == psModified || l1Dirty
	if m := p.misses.Find(victim); m != nil {
		// An upgrade is in flight for the victim (only upgrade misses
		// have their line resident). No PutM: the directory still sees
		// us as a sharer, the grant will re-install the line, and a
		// PutM now would race the grant. The dirty data rides the miss.
		m.dirtyWB = m.dirtyWB || dirty
		p.stats.EvictShared++
		return
	}
	if vst == psShared && !dirty {
		p.stats.EvictShared++
		return
	}
	if vst == psShared {
		// Dirty data above a merely-shared line (the best-effort
		// upgrade never got through): hand it to the directory as a
		// stale PutM — the directory writes memory for non-owners
		// unless a newer owner exists.
		p.stats.OrphanWB++
	} else {
		p.stats.EvictOwned++
	}
	p.sendPutM(victim, dirty, now)
}

// finishWaiters closes the attribution lifecycles and completes every
// L1 request parked on the miss, oldest first. Each is popped before it
// completes: Complete recycles the request, link and all.
func (p *PrivateL2) finishWaiters(tag *attrib.Tag, miss *pl2Miss, now sim.Cycle) {
	p.f.attrib.Finish(tag, now)
	for w := miss.waiters.Pop(); w != nil; w = miss.waiters.Pop() {
		if w.Attrib != nil && w.Attrib.Merged {
			p.f.attrib.FinishMerged(w.Attrib, now)
		}
		w.Complete(now)
	}
}

// wbAck retires a writeback-buffer entry; a redirtied entry (an orphan
// L1 writeback landed mid-flight) immediately re-sends with data.
func (p *PrivateL2) wbAck(m *message, now sim.Cycle) {
	w, ok := p.wb[m.line]
	if !ok {
		panic(fmt.Sprintf("coherence: WBAck for line %#x with no writeback at core %d", uint64(m.line), p.id))
	}
	delete(p.wb, m.line)
	if w.redirty {
		p.sendPutM(m.line, true, now)
	}
}

// invalidate drops a shared copy on the directory's order and acks. An
// in-flight miss for the same line is untouched — its fill belongs to
// the next coherence epoch.
func (p *PrivateL2) invalidate(m *message, now sim.Cycle) {
	p.stats.InvRecv++
	if present, _ := p.arr.Invalidate(m.line); present {
		p.dl1.InvalidateLine(m.line)
		p.il1.InvalidateLine(m.line)
	} else if ms := p.misses.Find(m.line); ms != nil && !ms.excl {
		// No copy but a GetS in flight: either the directory already
		// granted us the line (the data — possibly cache-to-cache from
		// another core — races this Inv on an unordered path), or the
		// sharer record is stale and the fill will be fresh. Both are
		// safe to drop: serve the waiters once, install nothing.
		ms.noInstall = true
	}
	ack := p.f.newMsg(mInvAck, m.line, p.id)
	p.inject(ack, p.f.homeDir(m.line).node, now)
}

// fwdGetS serves a read for a line this cache owns: demote to S, send
// the data cache-to-cache, and hand the directory its writeback copy.
// An owner that just evicted serves from the writeback buffer instead —
// its in-flight PutM doubles as the demotion data at the directory.
func (p *PrivateL2) fwdGetS(m *message, now sim.Cycle) {
	line := m.line
	st := p.State(line)
	if st == psExcl || st == psModified {
		p.stats.FwdServed++
		p.setState(line, psShared)
		data := p.f.newMsg(mDataOwner, line, p.id)
		data.tag = m.tag
		p.inject(data, m.requester, now)
		wbd := p.f.newMsg(mWBData, line, p.id)
		wbd.requester = m.requester
		wbd.dirty = st == psModified
		p.inject(wbd, p.f.homeDir(line).node, now)
		return
	}
	if _, ok := p.wb[line]; ok {
		p.stats.FwdFromWB++
		data := p.f.newMsg(mDataOwner, line, p.id)
		data.tag = m.tag
		p.inject(data, m.requester, now)
		return
	}
	panic(fmt.Sprintf("coherence: FwdGetS for line %#x at core %d, which owns nothing", uint64(line), p.id))
}

// fwdGetM hands a line's ownership to another core: send exclusive data
// cache-to-cache and invalidate every local copy.
func (p *PrivateL2) fwdGetM(m *message, now sim.Cycle) {
	line := m.line
	st := p.State(line)
	if st == psExcl || st == psModified {
		p.stats.FwdServed++
		p.arr.Invalidate(line)
		p.dl1.InvalidateLine(line)
		p.il1.InvalidateLine(line)
	} else if _, ok := p.wb[line]; ok {
		p.stats.FwdFromWB++
	} else {
		panic(fmt.Sprintf("coherence: FwdGetM for line %#x at core %d, which owns nothing", uint64(line), p.id))
	}
	data := p.f.newMsg(mDataOwner, line, p.id)
	data.excl = true
	data.tag = m.tag
	p.inject(data, m.requester, now)
}
