package workload

import (
	"fmt"
	"math"
	"math/rand"

	"stackedsim/internal/cpu"
)

// Generator synthesizes the μop stream for one benchmark. It implements
// cpu.UOpSource and cpu.Batcher deterministically for a given (spec,
// seed) pair: the stream is the same however Next and Batch calls mix.
type Generator struct {
	spec Spec
	rng  *rand.Rand

	// Streaming/strided state: one cursor per stream.
	streamBase []uint64
	streamPos  []uint64
	streamLen  uint64 // bytes per stream

	// Mixed state: current sequential run.
	runAddr uint64
	runLeft int

	// Pointer-chase state.
	chaseAddr uint64

	// Shared-pattern state: the producer-consumer window cursor.
	shIter uint64

	// Hot-ring state: the (1-ColdFrac) share of memory μops walk a
	// small L1-resident ring, modeling the strong near locality of the
	// real benchmarks.
	hotPos   uint64
	hotBytes uint64
	coldFrac float64

	// Pending μops for the current "iteration", handed out from next on.
	// The slice is reused across iterations so a steady-state Next or
	// Batch allocates nothing. carry is the iteration's running filler
	// share; fillPerMem (fillers per memory μop) and mispredP (the chance
	// a filler is a mispredicted branch) are fixed by the spec.
	pending    []cpu.UOp
	next       int
	carry      float64
	fillPerMem float64
	mispredP   float64
	pc         uint64 // synthetic PC space
}

// hotBase places the hot ring far above the cold footprint in the
// virtual address space.
const hotBase = uint64(1) << 40

// NewGenerator returns a generator for spec seeded deterministically.
func NewGenerator(spec Spec, seed int64) *Generator {
	if spec.Footprint == 0 {
		panic(fmt.Sprintf("workload %s: zero footprint", spec.Name))
	}
	if spec.MemFrac <= 0 || spec.MemFrac > 1 {
		panic(fmt.Sprintf("workload %s: MemFrac %v out of range", spec.Name, spec.MemFrac))
	}
	g := &Generator{
		spec: spec,
		rng:  rand.New(rand.NewSource(seed ^ int64(len(spec.Name))<<32)),
	}
	streams := spec.Streams
	if streams < 1 {
		streams = 1
	}
	g.streamLen = spec.Footprint / uint64(streams)
	for s := 0; s < streams; s++ {
		g.streamBase = append(g.streamBase, uint64(s)*g.streamLen)
		g.streamPos = append(g.streamPos, 0)
	}
	g.chaseAddr = g.randomLine()
	g.runAddr = 0
	g.hotBytes = spec.EffectiveHotBytes()
	g.coldFrac = spec.EffectiveColdFrac()
	g.fillPerMem = (1 - spec.MemFrac) / spec.MemFrac
	// Scaled so the per-μop rate over the full stream is Mispred.
	g.mispredP = spec.Mispred / spec.MemFrac * (1 - spec.MemFrac)
	// The batch slice at its largest, so a run never grows it: the most
	// memory μops one memBatch emits, and the fillers MemFrac puts
	// behind them (one spare for the carry's rounding).
	mems := maxBatch(spec.Pattern, streams)
	fillers := int(math.Ceil(float64(mems) * (1 - spec.MemFrac) / spec.MemFrac))
	g.pending = make([]cpu.UOp, 0, mems+fillers+1)
	return g
}

// maxBatch is the most memory μops memBatch emits in one iteration of
// pattern over streams streams.
func maxBatch(p Pattern, streams int) int {
	switch p {
	case Streaming, Strided:
		return streams
	case PointerChase, ProducerConsumer, LockContended:
		return 2
	}
	return 1
}

// Spec returns the generator's benchmark spec.
func (g *Generator) Spec() Spec { return g.spec }

// Next implements cpu.UOpSource.
func (g *Generator) Next() cpu.UOp {
	if g.next == len(g.pending) {
		g.refill()
	}
	op := g.pending[g.next]
	g.next++
	return op
}

// Batch implements cpu.Batcher by handing out the rest of the current
// iteration, generated first if none is left. The slice is the
// generator's own buffer: the next iteration, which the next Batch (or a
// Next past the batch) generates, overwrites it.
func (g *Generator) Batch() []cpu.UOp {
	if g.next == len(g.pending) {
		g.refill()
	}
	b := g.pending[g.next:]
	g.next = len(g.pending)
	return b
}

// refill generates one iteration: a batch of memory μops according to the
// pattern, each followed by the filler compute μops implied by MemFrac,
// the occasional one a mispredicted branch. memBatch writes each memory
// μop in its final slot and zeroes the slots of its fillers (see emit);
// the fillers are then drawn in place, after every memory μop's draws.
func (g *Generator) refill() {
	g.pending, g.next, g.carry = g.pending[:0], 0, 0
	g.memBatch()
	for i := range g.pending {
		if op := &g.pending[i]; !op.Mem {
			g.filler(op)
		}
	}
}

// emit appends memory μop op to the iteration, and after it a zeroed
// slot for each filler compute μop that MemFrac puts behind it.
func (g *Generator) emit(op cpu.UOp) {
	g.pending = append(g.pending, op)
	for g.carry += g.fillPerMem; g.carry >= 1; g.carry-- {
		g.pending = append(g.pending, cpu.UOp{})
	}
}

// filler makes the zeroed slot op a compute μop, occasionally a
// mispredicted branch.
func (g *Generator) filler(op *cpu.UOp) {
	op.PC = g.nextPC(0x10)
	op.Mispredict = g.spec.Mispred > 0 && g.rng.Float64() < g.mispredP
}

func (g *Generator) nextPC(region uint64) uint64 {
	g.pc++
	return region<<20 | g.pc%64
}

func (g *Generator) randomLine() uint64 {
	lines := g.spec.Footprint / 64
	return (uint64(g.rng.Int63()) % lines) * 64
}

func (g *Generator) randomSharedLine() uint64 {
	lines := g.spec.SharedBytes / 64
	return (uint64(g.rng.Int63()) % lines) * 64
}

// hotOp emits one access on the L1-resident hot ring.
func (g *Generator) hotOp() cpu.UOp {
	addr := hotBase + g.hotPos
	g.hotPos += 8
	if g.hotPos >= g.hotBytes {
		g.hotPos = 0
	}
	store := g.rng.Float64() < g.spec.StoreFrac
	return cpu.UOp{Mem: true, Store: store, VAddr: addr, PC: 0x500 << 20}
}

// cold reports whether the next memory μop takes the cold path.
func (g *Generator) cold() bool {
	return g.coldFrac >= 1 || g.rng.Float64() < g.coldFrac
}

// memBatch emits the memory μops of one iteration.
func (g *Generator) memBatch() {
	switch g.spec.Pattern {
	case Streaming, Strided:
		for s := range g.streamBase {
			if !g.cold() {
				g.emit(g.hotOp())
				continue
			}
			addr := g.streamBase[s] + g.streamPos[s]
			g.streamPos[s] += g.spec.Stride
			if g.streamPos[s]+g.spec.ElemBytes > g.streamLen {
				g.streamPos[s] = 0
			}
			store := s == len(g.streamBase)-1 && g.rng.Float64() < g.spec.StoreFrac*float64(len(g.streamBase))
			// Each stream keeps its own PC so the IP-stride
			// prefetcher can train per stream.
			g.emit(cpu.UOp{Mem: true, Store: store, VAddr: addr, PC: 0x100<<20 | uint64(s)})
		}
	case RandomAccess:
		if !g.cold() {
			g.emit(g.hotOp())
			return
		}
		store := g.rng.Float64() < g.spec.StoreFrac
		g.emit(cpu.UOp{Mem: true, Store: store, VAddr: g.randomLine() + uint64(g.rng.Intn(8))*8, PC: 0x200 << 20})
	case PointerChase:
		if !g.cold() {
			g.emit(g.hotOp())
			return
		}
		// The next node address "depends" on the loaded value: model as
		// a random hop that must wait for the previous load.
		g.chaseAddr = g.randomLine()
		g.emit(cpu.UOp{Mem: true, VAddr: g.chaseAddr, PC: 0x300 << 20, DependsOnPrev: true})
		if g.rng.Float64() < g.spec.StoreFrac {
			g.emit(cpu.UOp{Mem: true, Store: true, VAddr: g.chaseAddr + 8, PC: 0x301 << 20})
		}
	case Mixed:
		if !g.cold() {
			g.emit(g.hotOp())
			return
		}
		if g.runLeft <= 0 {
			if g.rng.Float64() < g.spec.RandFrac {
				g.runAddr = g.randomLine()
				g.runLeft = 1 + g.rng.Intn(4)
			} else {
				g.runLeft = 16 + g.rng.Intn(32)
			}
		}
		g.runLeft--
		addr := g.runAddr
		g.runAddr += 16
		if g.runAddr >= g.spec.Footprint {
			g.runAddr = 0
		}
		store := g.rng.Float64() < g.spec.StoreFrac
		g.emit(cpu.UOp{Mem: true, Store: store, VAddr: addr, PC: 0x400 << 20})
	case ProducerConsumer:
		// Write the leading edge of a sliding window over the shared
		// ring and read half a ring behind it. Every core walks the
		// same deterministic window positions, so produced lines are
		// consumed (and re-owned) by whichever core gets there next.
		lines := g.spec.SharedBytes / 64
		w := (g.shIter % lines) * 64
		r := ((g.shIter + lines/2) % lines) * 64
		g.shIter++
		g.emit(cpu.UOp{Mem: true, Store: true, Shared: true, VAddr: w, PC: 0x600 << 20})
		g.emit(cpu.UOp{Mem: true, Shared: true, VAddr: r, PC: 0x601 << 20})
	case LockContended:
		// Pick one of a few page-spaced lock lines (pages interleave
		// across directory banks) and do a load-then-store on it: the
		// classic test-and-set, GetS followed by an upgrade.
		locks := g.spec.SharedBytes / 4096
		if locks == 0 {
			locks = 1
		}
		l := (uint64(g.rng.Int63()) % locks) * 4096
		if l+64 > g.spec.SharedBytes {
			l = 0
		}
		g.emit(cpu.UOp{Mem: true, Shared: true, VAddr: l, PC: 0x610 << 20})
		g.emit(cpu.UOp{Mem: true, Store: true, Shared: true, VAddr: l, PC: 0x611 << 20, DependsOnPrev: true})
	case ReadMostlyShared:
		// Random reads over a shared table; the rare store invalidates
		// every reader's copy.
		store := g.rng.Float64() < g.spec.StoreFrac
		g.emit(cpu.UOp{Mem: true, Store: store, Shared: true,
			VAddr: g.randomSharedLine() + uint64(g.rng.Intn(8))*8, PC: 0x620 << 20})
	default:
		panic(fmt.Sprintf("workload %s: unknown pattern %v", g.spec.Name, g.spec.Pattern))
	}
}
