package mem

import (
	"runtime"
	"testing"
)

// refPageTable is the page table as it was before the leaves: one map
// from virtual page to frame and one from frame to allocation sequence.
// Its frame choice is PageTable's, so both hand out the same frames.
type refPageTable struct {
	pageBytes Addr
	frames    Addr
	next      uint64
	allocated Addr
	used      []uint64
	table     map[VAddr]Addr
	order     map[Addr]uint64
	seq       uint64
}

func newRefPageTable(totalBytes, pageBytes uint64) *refPageTable {
	frames := totalBytes / pageBytes
	return &refPageTable{
		pageBytes: Addr(pageBytes),
		frames:    Addr(frames),
		used:      make([]uint64, (frames+63)/64),
		table:     make(map[VAddr]Addr),
		order:     make(map[Addr]uint64),
	}
}

func (pt *refPageTable) Allocated() int { return len(pt.table) }

func (pt *refPageTable) Translate(v VAddr) Addr {
	vpage := v / VAddr(pt.pageBytes)
	frame, ok := pt.table[vpage]
	if !ok {
		frame = pt.allocFrame()
		pt.table[vpage] = frame
	}
	return frame*pt.pageBytes + Addr(v%VAddr(pt.pageBytes))
}

func (pt *refPageTable) allocFrame() Addr {
	if pt.allocated >= pt.frames {
		clear(pt.used)
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

// FrameOrder reports the sequence number of the latest allocation of
// the frame holding a, or false if it was never allocated.
func (pt *refPageTable) FrameOrder(a Addr) (uint64, bool) {
	n, ok := pt.order[a/pt.pageBytes]
	return n, ok
}

// FuzzPageTable drives the page table and the map-based reference with
// one stream of translations, on few enough frames that the allocator
// wraps, and checks after every one that both give the same address,
// count the same mapped pages and, when hot frames are tracked, agree on
// every frame's hotness.
//
// An op is two bytes: the top three bits of the first pick the space
// (a core's cold footprint, its hot ring at 1<<40, its code at 1<<44,
// the shared space, the bottom of the raw address space, or a raw
// address hashed from both bytes), its low five bits the core, and the
// second byte the page.
func FuzzPageTable(f *testing.F) {
	const cold, ring, code, shared, low = 0 << 5, 1 << 5, 2 << 5, 3 << 5, 4 << 5
	// Leaf boundaries in one space, then the same pages from another
	// core and the shared space; the allocator wraps on 4 frames.
	f.Add(uint8(3), uint8(3), uint8(0), []byte{cold, 15, cold, 16, cold, 0, cold | 1, 15, shared, 16, cold, 15, ring, 0, code, 255, cold | 1, 16})
	// Every hot frame handed out again after a wrap, with hot and cold
	// allocations mixed.
	f.Add(uint8(2), uint8(1), uint8(6), []byte{cold, 0, cold, 1, cold, 2, cold, 3, cold, 4, cold, 5, cold, 0, cold, 6, cold, 7, ring | 2, 1})
	f.Add(uint8(63), uint8(0), uint8(0), []byte{low, 1, 5 << 5, 200, low, 0, 7<<5 | 31, 255, low | 9, 1, low, 17})
	// 64 frames, a whole bitmap word: the frame after the top one is
	// past the hot bitmap's end.
	f.Add(uint8(63), uint8(0), uint8(1), []byte{cold, 0})
	// Enough leaves, in every space of 32 cores, to grow the leaf-number
	// table twice, on a wrapping allocator tracking hot frames.
	grow := make([]byte, 0, 512)
	for c := byte(0); c < 32; c++ {
		grow = append(grow, cold|c, c*16, ring|c, 3, code|c, 255-c)
	}
	grow = append(grow, grow[:60]...)
	f.Add(uint8(40), uint8(20), uint8(9), grow)

	f.Fuzz(func(t *testing.T, frames, shift, hot uint8, ops []byte) {
		pageBytes := uint64(64) << (shift % 7)
		total := (uint64(frames%64) + 1) * pageBytes
		pt, ref := NewPageTable(total, pageBytes), newRefPageTable(total, pageBytes)
		hotFrames := uint64(hot) - 1
		if hot > 0 {
			pt.TrackHot(hotFrames)
		}
		for n := 0; n+1 < len(ops); n += 2 {
			b0, b1 := ops[n], ops[n+1]
			core, page, off := int(b0&31), uint64(b1)*pageBytes, uint64(b0)*37%pageBytes
			var v VAddr
			switch b0 >> 5 {
			case cold >> 5:
				v = CoreSpace(core, page+off)
			case ring >> 5:
				v = CoreSpace(core, 1<<40+page+off)
			case code >> 5:
				v = CoreSpace(core, 1<<44+page+off)
			case shared >> 5:
				v = SharedSpace(page + off)
			case low >> 5:
				v = VAddr(page + off)
			default:
				v = VAddr(mix64(uint64(b0)<<8 | uint64(b1)))
			}
			if got, want := pt.Translate(v), ref.Translate(v); got != want {
				t.Fatalf("op %d: Translate(%#x) = %#x, reference %#x", n/2, uint64(v), uint64(got), uint64(want))
			}
			if got, want := pt.Allocated(), ref.Allocated(); got != want {
				t.Fatalf("op %d: Allocated() = %d, reference %d", n/2, got, want)
			}
			if 4*len(pt.leaves) > 3*len(pt.slots) {
				t.Fatalf("op %d: %d leaves in %d slots, over three-quarters load", n/2, len(pt.leaves), len(pt.slots))
			}
			// Frames past the end of memory too: none was allocated,
			// so none is hot.
			for fr := Addr(0); fr < ref.frames+64; fr++ {
				a := fr * ref.pageBytes
				seq, ok := ref.FrameOrder(a)
				if want := hot > 0 && ok && seq < hotFrames; pt.Hot(a) != want {
					t.Fatalf("op %d: frame %d hot = %t, reference %t", n/2, fr, !want, want)
				}
			}
			if pt.Hot(^Addr(0)) {
				t.Fatalf("op %d: the top address reads hot", n/2)
			}
		}
	})
}

// TestPageTableFootprint pins what the translations cost in heap, in
// two shapes: idle1's, one core's dense 64 MiB footprint plus a code
// page, and the 64-core machines', a few scattered pages per core. The
// two-map table took ~1.15 MiB for the first.
func TestPageTableFootprint(t *testing.T) {
	for _, tc := range []struct {
		name  string
		touch func(*PageTable)
		limit uint64
	}{
		{"dense 16385 pages", func(pt *PageTable) {
			for p := uint64(0); p < 16384; p++ {
				pt.Translate(CoreSpace(0, p*4096))
			}
			pt.Translate(CoreSpace(0, 1<<44))
		}, 160 << 10},
		{"64 cores x 3 pages", func(pt *PageTable) {
			for c := 0; c < 64; c++ {
				for _, v := range []uint64{uint64(c) * 4096, 1<<40 + 7*4096, 1<<44 + 4096} {
					pt.Translate(CoreSpace(c, v))
				}
			}
		}, 32 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Several tables, so that what the runtime itself allocates
			// or frees meanwhile is a small share of the growth.
			const tables = 8
			pts := make([]*PageTable, tables)
			for i := range pts {
				pts[i] = NewPageTable(1<<30, 4096)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, pt := range pts {
				tc.touch(pt)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(pts)
			grew := (after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)) / tables
			t.Logf("%d pages mapped, heap grew %d B a table", pts[0].Allocated(), grew)
			if grew > tc.limit {
				t.Fatalf("heap grew %d B a table mapping %d pages, want at most %d", grew, pts[0].Allocated(), tc.limit)
			}
		})
	}
}

// BenchmarkTranslate times the two paths a TLB takes into the page
// table: a re-translation of a mapped page, on an entry's first hit
// after each refill, and a first touch, which allocates the frame.
func BenchmarkTranslate(b *testing.B) {
	const pages = 16384 // idle1's footprint
	b.Run("mapped", func(b *testing.B) {
		pt := NewPageTable(8<<30, 4096)
		for p := uint64(0); p < pages; p++ {
			pt.Translate(CoreSpace(0, p*4096))
		}
		n := uint64(0)
		for b.Loop() {
			pt.Translate(CoreSpace(0, n*4099%pages*4096))
			n++
		}
	})
	b.Run("first-touch", func(b *testing.B) {
		pt := NewPageTable(1<<30, 4096)
		n := uint64(0)
		for b.Loop() {
			if n == pages { // a fresh table, so the leaves stay idle1's size
				pt, n = NewPageTable(1<<30, 4096), 0
			}
			pt.Translate(CoreSpace(0, n*4096))
			n++
		}
	})
}
