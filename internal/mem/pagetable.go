package mem

import (
	"fmt"
	"math"
	"math/bits"
)

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
//
// The translations live the way a hardware page table keeps them: in
// leaves of leafPages consecutive virtual pages, 64 bytes each, one word
// per page holding its frame + 1 (zero while unmapped). The leaves sit
// in one slab, found by leaf number (virtual page / leafPages) through
// an open-addressed table with linear probing, grown by doubling before
// it is three-quarters full. A page never unmaps, so nothing is removed.
type PageTable struct {
	pageBytes Addr
	pageShift uint
	frames    Addr     // total frames available
	next      uint64   // frames handed out in all
	allocated Addr     // frames handed out since the bitmap last reset
	used      []uint64 // frame bitmap
	mapped    int      // virtual pages mapped

	slots     []leafSlot
	slotShift uint // 64 - log2(len(slots)): home keeps the hash's top bits
	leaves    []leaf

	// hot marks the frames whose latest allocation came among the first
	// hotFrames; nil unless TrackHot was called.
	hot       []uint64
	hotFrames uint64
}

const (
	leafShift = 4
	leafPages = 1 << leafShift
)

// leaf holds the frames of leafPages consecutive virtual pages, each as
// frame + 1, zero while the page is unmapped.
type leaf [leafPages]uint32

// leafSlot is one entry of the leaf-number table.
type leafSlot struct {
	key  uint64 // leaf number + 1; zero marks a free slot
	leaf uint32 // index into the slab
}

// NewPageTable returns a table managing totalBytes of physical memory in
// pageBytes frames. It panics if the sizes are not positive powers of
// two, or if the frame count does not fit a uint32.
func NewPageTable(totalBytes, pageBytes uint64) *PageTable {
	if pageBytes == 0 || pageBytes&(pageBytes-1) != 0 {
		panic(fmt.Sprintf("mem: page size %d must be a power of two", pageBytes))
	}
	if totalBytes == 0 || totalBytes%pageBytes != 0 {
		panic(fmt.Sprintf("mem: total %d must be a positive multiple of page size %d", totalBytes, pageBytes))
	}
	frames := totalBytes / pageBytes
	if frames > math.MaxUint32 {
		panic(fmt.Sprintf("mem: %d frames do not fit a page-table leaf", frames))
	}
	const slots = 64
	return &PageTable{
		pageBytes: Addr(pageBytes),
		pageShift: uint(bits.TrailingZeros64(pageBytes)),
		frames:    Addr(frames),
		used:      make([]uint64, (frames+63)/64),
		slots:     make([]leafSlot, slots),
		slotShift: uint(64 - bits.TrailingZeros(slots)),
	}
}

// PageBytes reports the frame size.
func (pt *PageTable) PageBytes() uint64 { return uint64(pt.pageBytes) }

// Allocated reports how many virtual pages have been mapped. Once the
// allocator has wrapped that exceeds the frames in use, since a reused
// frame backs more than one page.
func (pt *PageTable) Allocated() int { return pt.mapped }

// Translate maps a virtual address to a physical address, allocating a
// frame on first touch. When physical memory is exhausted, allocation
// wraps and reuses frames from the start; the paper's workloads fit in
// 8GB, so wrapping only matters for deliberately oversubscribed tests.
func (pt *PageTable) Translate(v VAddr) Addr {
	vpage := uint64(v) >> pt.pageShift
	w := &pt.leaf(vpage >> leafShift)[vpage&(leafPages-1)]
	if *w == 0 {
		*w = uint32(pt.allocFrame()) + 1
		pt.mapped++
	}
	return Addr(*w-1)<<pt.pageShift | Addr(v)&(pt.pageBytes-1)
}

// leaf returns leaf number n, adding an empty one if it has none.
func (pt *PageTable) leaf(n uint64) *leaf {
	key, mask := n+1, len(pt.slots)-1
	i := pt.home(key)
	for ; pt.slots[i].key != 0; i = (i + 1) & mask {
		if pt.slots[i].key == key {
			return &pt.leaves[pt.slots[i].leaf]
		}
	}
	if 4*(len(pt.leaves)+1) > 3*len(pt.slots) {
		pt.grow()
		i = pt.firstFree(key)
	}
	pt.slots[i] = leafSlot{key: key, leaf: uint32(len(pt.leaves))}
	pt.leaves = append(pt.leaves, leaf{})
	return &pt.leaves[len(pt.leaves)-1]
}

// home is a key's first probe: Fibonacci hashing, whose top bits mix
// every bit of the leaf number.
func (pt *PageTable) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> pt.slotShift)
}

// firstFree returns the first free slot of key's probe run.
func (pt *PageTable) firstFree(key uint64) int {
	mask := len(pt.slots) - 1
	i := pt.home(key)
	for pt.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the leaf-number table and re-inserts every slot.
func (pt *PageTable) grow() {
	old := pt.slots
	pt.slots = make([]leafSlot, 2*len(old))
	pt.slotShift--
	for _, s := range old {
		if s.key != 0 {
			pt.slots[pt.firstFree(s.key)] = s
		}
	}
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
	seq := pt.next
	pt.next++
	cand := Addr(mix64(seq)) % pt.frames
	for pt.used[cand/64]&(1<<(cand%64)) != 0 {
		cand = (cand + 1) % pt.frames
	}
	pt.used[cand/64] |= 1 << (cand % 64)
	if pt.hot != nil {
		if seq < pt.hotFrames {
			pt.hot[cand/64] |= 1 << (cand % 64)
		} else {
			pt.hot[cand/64] &^= 1 << (cand % 64)
		}
	}
	pt.allocated++
	return cand
}

// TrackHot makes the table mark the frames allocated while fewer than
// frames had been handed out, for Hot to report. The stack-cache
// memcache mode uses this to model OS page placement: the earliest-
// touched pages live in the stacked hot region. It panics once a frame
// has been allocated, since the earlier allocations would go unmarked.
func (pt *PageTable) TrackHot(frames uint64) {
	if pt.next != 0 {
		panic("mem: TrackHot after the first allocation")
	}
	pt.hot = make([]uint64, len(pt.used))
	pt.hotFrames = frames
}

// Hot reports whether the frame holding physical address a was, at its
// latest allocation, among the first frames handed out (the count given
// to TrackHot). A reused frame (after wrap) reads as its latest
// allocation left it. Without TrackHot no frame is hot, and neither is
// an address past the end of memory (an L2 prefetch of the line after
// the top frame asks about one).
func (pt *PageTable) Hot(a Addr) bool {
	f := a >> pt.pageShift
	return pt.hot != nil && f < pt.frames && pt.hot[f/64]&(1<<(f%64)) != 0
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
