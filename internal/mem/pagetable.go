package mem

import "fmt"

// PageTable performs virtual-to-physical translation with first-come-
// first-serve frame allocation, matching the paper's methodology: pages
// are assigned physical frames in the order they are first touched,
// regardless of which core touched them.
//
// Each allocation picks a pseudo-random free frame (a hash of the
// allocation counter, linear-probed against a used-frame bitmap). This
// models the fragmented physical memory of a long-running system and
// prevents a degenerate artifact of synthetic lockstep workloads: with
// sequential frame numbers, programs that touch pages at correlated
// rates end up pinned to a single page-interleaved memory channel.
type PageTable struct {
	pageBytes Addr
	frames    Addr // total frames available
	next      uint64
	allocated Addr
	used      []uint64 // frame bitmap
	table     map[VAddr]Addr
	order     map[Addr]uint64 // frame -> allocation sequence number
	seq       uint64
}

// NewPageTable returns a table managing totalBytes of physical memory in
// pageBytes frames. It panics if the sizes are not positive powers of two.
func NewPageTable(totalBytes, pageBytes uint64) *PageTable {
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d must be a power of two", pageBytes))
	}
	if totalBytes == 0 || totalBytes%pageBytes != 0 {
		panic(fmt.Sprintf("mem: total %d must be a positive multiple of page size %d", totalBytes, pageBytes))
	}
	frames := totalBytes / pageBytes
	return &PageTable{
		pageBytes: Addr(pageBytes),
		frames:    Addr(frames),
		used:      make([]uint64, (frames+63)/64),
		table:     make(map[VAddr]Addr),
		order:     make(map[Addr]uint64),
	}
}

// PageBytes reports the frame size.
func (pt *PageTable) PageBytes() uint64 { return uint64(pt.pageBytes) }

// Allocated reports how many frames have been handed out.
func (pt *PageTable) Allocated() int { return len(pt.table) }

// Translate maps a virtual address to a physical address, allocating a
// frame on first touch. When physical memory is exhausted, allocation
// wraps and reuses frames from the start; the paper's workloads fit in
// 8GB, so wrapping only matters for deliberately oversubscribed tests.
func (pt *PageTable) Translate(v VAddr) Addr {
	vpage := v / VAddr(pt.pageBytes)
	frame, ok := pt.table[vpage]
	if !ok {
		frame = pt.allocFrame()
		pt.table[vpage] = frame
	}
	return frame*pt.pageBytes + Addr(v%VAddr(pt.pageBytes))
}

// allocFrame picks the next free frame pseudo-randomly. When every frame
// has been handed out, the bitmap resets and frames are reused.
func (pt *PageTable) allocFrame() Addr {
	if pt.allocated >= pt.frames {
		for i := range pt.used {
			pt.used[i] = 0
		}
		pt.allocated = 0
	}
	cand := Addr(mix64(pt.next)) % pt.frames
	pt.next++
	for pt.used[cand/64]&(1<<(cand%64)) != 0 {
		cand = (cand + 1) % pt.frames
	}
	pt.used[cand/64] |= 1 << (cand % 64)
	pt.order[cand] = pt.seq
	pt.seq++
	pt.allocated++
	return cand
}

// FrameOrder reports the allocation sequence number (0 = first frame
// ever handed out) of the frame holding physical address a, or false
// if the frame was never allocated. A reused frame (after wrap)
// carries the sequence number of its latest allocation. The stack-
// cache memcache mode uses this to model OS page placement: the
// earliest-touched pages live in the stacked hot region.
func (pt *PageTable) FrameOrder(a Addr) (uint64, bool) {
	n, ok := pt.order[a/pt.pageBytes]
	return n, ok
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed bijection.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// CoreSpace returns a virtual address in core c's private address space.
// Bits 48+ carry the core ID, far above any workload footprint.
func CoreSpace(core int, v uint64) VAddr {
	return VAddr(uint64(core+1)<<48 | v)
}

// SharedSpace returns a virtual address in the process-wide shared
// region: one address space all cores translate identically (first
// touch allocates the frame, later touches from any core reuse it), so
// shared-data workloads generate real cross-core coherence traffic.
// Bit 47 keeps it disjoint from every per-core space (which start at
// 1<<48) and far above any private footprint or hot-region base.
func SharedSpace(v uint64) VAddr {
	return VAddr(1<<47 | v)
}
