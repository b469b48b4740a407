package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"stackedsim/internal/cpu"
)

// streamHash digests the first n μops of g, every field included.
func streamHash(g *Generator, n int) uint64 {
	h := fnv.New64a()
	var buf [17]byte
	for i := 0; i < n; i++ {
		op := g.Next()
		var flags byte
		for bit, on := range []bool{op.Mem, op.Store, op.DependsOnPrev, op.Mispredict, op.Shared} {
			if on {
				flags |= 1 << bit
			}
		}
		buf[0] = flags
		binary.LittleEndian.PutUint64(buf[1:], op.VAddr)
		binary.LittleEndian.PutUint64(buf[9:], op.PC)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenStreams pins the first 100k μops of every named spec at seed 1,
// recorded before the generator's buffers were made reusable: every
// simulated statistic downstream depends on this stream byte for byte.
var goldenStreams = map[string]uint64{
	"S.copy":             0x9fec6e3d773f5f99,
	"S.add":              0x64cfd07a06c36f7b,
	"S.all":              0xc7a2f31d05886f3d,
	"S.triad":            0xadbbcedacde3ec3c,
	"S.scale":            0xd15bd5bdf6c0bc4d,
	"tigr":               0xfeb8eba3ad41185b,
	"qsort":              0xbc4548a608b9f0ca,
	"libquantum":         0xc67cc69ee84a4afd,
	"soplex":             0x99fdcdd96fe4bac0,
	"milc":               0x18a2dc03eba6a77a,
	"wupwise":            0xa39aa0c5db1672d2,
	"equake":             0xa6c340c6a638cb7a,
	"lbm":                0x1321ebfcd19aa0c4,
	"mcf":                0xc2fcf19e8f296240,
	"mummer":             0x4dc8ce75cacea8fd,
	"swim":               0xdd708bc2d25ca53a,
	"omnetpp":            0xe4340b6c06db28aa,
	"applu":              0xfa90c57c1f9e4c28,
	"mgrid":              0x2bac1bb359f40e59,
	"apsi":               0xf7dd06e1e10ddea0,
	"h264":               0x2b279d9989843724,
	"mesa":               0xe2deac10b3a2af71,
	"gzip":               0x4895707f2e3f1975,
	"astar":              0x110a8301ea33d90d,
	"zeusmp":             0x1ad94f081798a8af,
	"bzip2":              0x3f4676e6aa73febb,
	"vortex":             0xc452777843c9e075,
	"namd":               0x68523ee015300e45,
	"producer-consumer":  0xf15e42cf095c9cd5,
	"lock-contended":     0xb5ae5b67b047d886,
	"read-mostly-shared": 0xfe9ef696a5e060ed,
}

func namedSpecs() []Spec { return append(append([]Spec{}, Specs...), SharedSpecs...) }

func TestGoldenStreams(t *testing.T) {
	specs := namedSpecs()
	if len(specs) != len(goldenStreams) {
		t.Fatalf("%d named specs, %d golden hashes", len(specs), len(goldenStreams))
	}
	for _, s := range specs {
		if got := streamHash(NewGenerator(s, 1), 100000); got != goldenStreams[s.Name] {
			t.Errorf("%s: stream hash %#016x, golden %#016x", s.Name, got, goldenStreams[s.Name])
		}
	}
}

// TestNextDoesNotAllocate pins that Next and Batch allocate nothing
// from the first call on: NewGenerator sizes the batch slice for the
// largest iteration the spec can emit, so building a generator and
// drawing 10,000 μops from it, one by one or a batch at a time,
// allocates exactly what building it does.
func TestNextDoesNotAllocate(t *testing.T) {
	for _, s := range namedSpecs() {
		build := testing.AllocsPerRun(10, func() { NewGenerator(s, 1) })
		run := testing.AllocsPerRun(10, func() {
			g := NewGenerator(s, 1)
			for range 10000 {
				sinkOp = g.Next()
			}
		})
		if run != build {
			t.Errorf("%s: building a generator made %v allocations, building it and drawing 10000 μops %v", s.Name, build, run)
		}
		batched := testing.AllocsPerRun(10, func() {
			g := NewGenerator(s, 1)
			for n := 0; n < 10000; {
				b := g.Batch()
				sinkOp = b[len(b)-1]
				n += len(b)
			}
		})
		if batched != build {
			t.Errorf("%s: building a generator made %v allocations, building it and drawing 10000 μops by Batch %v", s.Name, build, batched)
		}
	}
}

// TestBatchMatchesNext pins that Batch hands out the stream Next does:
// at two seeds, for every named spec, 20,000 μops drawn by Batch calls
// interleaved with runs of Next calls, some of which stop inside an
// iteration so that the next Batch returns only its rest, equal the
// first 20,000 that Next alone draws.
func TestBatchMatchesNext(t *testing.T) {
	const n = 20000
	for _, s := range namedSpecs() {
		for _, seed := range []int64{1, 2} {
			single := NewGenerator(s, seed)
			want := make([]cpu.UOp, n)
			for i := range want {
				want[i] = single.Next()
			}
			mixed := NewGenerator(s, seed)
			got := make([]cpu.UOp, 0, n+64)
			for call := 0; len(got) < n; call++ {
				if call%3 == 2 {
					for range call % 7 {
						got = append(got, mixed.Next())
					}
					continue
				}
				b := mixed.Batch()
				if len(b) == 0 {
					t.Fatalf("%s seed %d: empty batch after %d μops", s.Name, seed, len(got))
				}
				got = append(got, b...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: μop %d is %+v by Batch and Next, %+v by Next alone", s.Name, seed, i, got[i], want[i])
				}
			}
		}
	}
}
