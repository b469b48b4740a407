package main

import (
	"time"

	"stackedsim/internal/bus"
	"stackedsim/internal/cache"
	"stackedsim/internal/config"
	"stackedsim/internal/dram"
	"stackedsim/internal/mem"
	"stackedsim/internal/memctrl"
	"stackedsim/internal/mshr"
	"stackedsim/internal/noc"
	"stackedsim/internal/sim"
	"stackedsim/internal/vbf"
	"stackedsim/internal/workload"
)

// Layer drives: each layer's public API driven alone, outside any
// machine, by a seeded address stream. They give host nanoseconds per
// operation — what an optimisation of that layer changes first — and,
// where a layer can waste work, the useful share. They carry no
// verdict; the prediction table in README.md says which end-to-end
// metric each should move.

// driveHandles is the tick-handle count of the 64-core machine (64
// each of cores, L1s, IL1s and private L2s, 4 directory banks, the
// mesh, 4 controllers): the size at which per-step handle scanning
// shows.
const driveHandles = 265

// nsPerOp calls batch, which performs and returns some number of
// operations, until d has elapsed, and returns host ns per operation
// at the core's uncontended speed (probe.go).
func nsPerOp(d time.Duration, batch func() int) float64 {
	ops := 0
	before := probe()
	t0 := time.Now()
	for time.Since(t0) < d {
		ops += batch()
	}
	elapsed := time.Since(t0)
	return float64(calm(elapsed, before, probe())) / float64(ops)
}

// driveStream is the seeded input every drive shares: line addresses of
// the memory μops of a 48 MiB mixed sequential/random benchmark, cycled.
// Its 512 Ki lines hold more distinct ones than the 12 MiB L2 does, so
// arrays see reuse, conflict and capacity misses.
type driveStream struct {
	seed  int64
	lines []mem.Addr
	next  int
}

const driveStreamLen = 1 << 19

func newDriveStream(seed int64) *driveStream {
	spec, _ := workload.ByName("qsort")
	g := workload.NewGenerator(spec, seed)
	s := &driveStream{seed: seed, lines: make([]mem.Addr, 0, driveStreamLen)}
	for len(s.lines) < driveStreamLen {
		if op := g.Next(); op.Mem {
			s.lines = append(s.lines, mem.Addr(op.VAddr&^63))
		}
	}
	return s
}

func (s *driveStream) line() mem.Addr {
	a := s.lines[s.next]
	s.next = (s.next + 1) % len(s.lines)
	return a
}

// scattered is the next line hashed to uniform bits, for drives that
// want endpoints or delays rather than addresses.
func (s *driveStream) scattered() uint64 {
	return uint64(s.line()) * 0x9E3779B97F4A7C15 >> 32
}

const driveBatch = 1024

// runDrives runs every layer drive for d each.
func runDrives(seed int64, d time.Duration) values {
	v := values{}
	s := newDriveStream(seed)
	for _, drive := range []func(*driveStream, time.Duration) values{
		driveEngine, driveGenerator, driveRequests, driveVBF, driveMSHR,
		driveArray, driveBank, driveBus, driveController, driveMesh,
	} {
		s.next = 0
		v.merge(drive(s, d))
	}
	return v
}

// driveEngine measures the engine's three costs: a Step over armed
// no-op tickers, a skipped span over sleeping handles (one event per
// 100 cycles — the direct measure of nextInteresting), and an event
// through the queue.
func driveEngine(s *driveStream, d time.Duration) values {
	armed := sim.NewEngine()
	for i := 0; i < driveHandles; i++ {
		armed.RegisterEvery(1, 0, sim.TickFunc(func(sim.Cycle) {}))
	}
	step := nsPerOp(d/3, func() int {
		for i := 0; i < driveBatch; i++ {
			armed.Step()
		}
		return driveBatch
	})

	asleep := sim.NewEngine()
	for i := 0; i < driveHandles; i++ {
		asleep.RegisterEvery(1, 0, sim.TickFunc(func(sim.Cycle) {})).SleepUntil(sim.FarFuture)
	}
	const span = 100
	var rearm func()
	rearm = func() { asleep.After(span, rearm) }
	rearm()
	skip := nsPerOp(d/3, func() int {
		asleep.Run(span * driveBatch)
		return driveBatch
	})

	var q sim.EventQueue
	var now sim.Cycle
	fired := 0
	fire := func() { fired++ }
	event := nsPerOp(d/3, func() int {
		for i := 0; i < driveBatch; i++ {
			now++
			q.At(now+1+sim.Cycle(s.scattered()&511), fire)
			q.FireDue(now)
		}
		return driveBatch
	})
	return values{"sim.step_ns": step, "sim.skip_ns": skip, "sim.event_ns": event}
}

var uopSink uint64

// driveGenerator measures one μop of sat4's benchmark.
func driveGenerator(s *driveStream, d time.Duration) values {
	spec, _ := workload.ByName("S.all")
	g := workload.NewGenerator(spec, s.seed)
	return values{"workload.next_ns": nsPerOp(d, func() int {
		for i := 0; i < driveBatch; i++ {
			uopSink += g.Next().VAddr
		}
		return driveBatch
	})}
}

// driveRequests measures a request's pooled lifecycle.
func driveRequests(_ *driveStream, d time.Duration) values {
	ids := &mem.IDSource{}
	return values{"mem.request_ns": nsPerOp(d, func() int {
		for i := 0; i < driveBatch; i++ {
			ids.NewRequest().Complete(0)
		}
		return driveBatch
	})}
}

// driveVBF searches a half-full 32-entry table, half of the searches
// for keys it holds.
func driveVBF(s *driveStream, d time.Duration) values {
	t := vbf.NewTable(32)
	var held []uint64
	for len(held) < 16 {
		key := uint64(s.line()) / 64
		if _, _, found := t.Search(key); found {
			continue
		}
		if _, ok := t.Allocate(key); ok {
			held = append(held, key)
		}
	}
	var searches, probes int
	ns := nsPerOp(d, func() int {
		for i := 0; i < driveBatch; i++ {
			key := held[i%len(held)]
			if i&1 == 0 {
				key = uint64(s.line()) / 64
			}
			_, p, _ := t.Search(key)
			probes += p
		}
		searches += driveBatch
		return driveBatch
	})
	return values{"vbf.search_ns": ns, "vbf.probes_per_search": float64(probes) / float64(searches)}
}

// driveMSHR runs the miss path of a 32-entry VBF bank kept half full:
// Lookup, Allocate on a miss, Release of the oldest entry.
func driveMSHR(s *driveStream, d time.Duration) values {
	f := mshr.New(config.MSHRVBF, 32)
	var live []*mshr.Entry
	return values{"mshr.op_ns": nsPerOp(d, func() int {
		for i := 0; i < driveBatch; i++ {
			line := s.line()
			if _, _, found := f.Lookup(line); found {
				continue
			}
			if e, ok := f.Allocate(line, nil); ok {
				live = append(live, e)
			}
			if len(live) > 16 {
				f.Release(live[0])
				live = live[1:]
			}
		}
		return driveBatch
	})}
}

// driveArray looks lines up in an array of the shared L2's geometry and
// fills the misses.
func driveArray(s *driveStream, d time.Duration) values {
	cfg := config.QuadMC()
	a := cache.NewArrayBySize("drive", cfg.L2SizeKB*1024, cfg.L2Ways, cfg.LineBytes)
	ns := nsPerOp(d, func() int {
		for i := 0; i < driveBatch; i++ {
			line := s.line()
			if !a.Lookup(line) {
				a.Fill(line, false)
			}
		}
		return driveBatch
	})
	return values{"cache.array_ns": ns, "cache.array_miss_rate": a.Stats().MissRate()}
}

// driveAddrMap is one controller's slice of the QuadMC address space.
func driveAddrMap(cfg *config.Config) mem.AddrMap {
	return mem.AddrMap{LineBytes: cfg.LineBytes, PageBytes: cfg.PageBytes, MCs: 1, RanksPerMC: cfg.RanksPerMC(), Banks: cfg.BanksPerRank}
}

// driveBank reads rows of one bank with a 4-entry row-buffer cache,
// each access issued as the previous one's data arrives.
func driveBank(s *driveStream, d time.Duration) values {
	cfg := config.QuadMC()
	amap := driveAddrMap(cfg)
	b := dram.NewBank(dram.TimingInCycles(cfg.Timing, cfg.CPUMHz), cfg.RowBufferEntries)
	var now sim.Cycle
	var accesses, hits int
	ns := nsPerOp(d, func() int {
		for i := 0; i < driveBatch; i++ {
			var hit bool
			now, hit = b.Access(now, amap.Decode(s.line()).Row, false)
			if hit {
				hits++
			}
		}
		accesses += driveBatch
		return driveBatch
	})
	return values{"dram.access_ns": ns, "dram.drive_row_hit_rate": float64(hits) / float64(accesses)}
}

// driveBus reserves back-to-back line transfers.
func driveBus(_ *driveStream, d time.Duration) values {
	cfg := config.QuadMC()
	b := bus.New(cfg.BusBytes, cfg.BusDivider, cfg.BusDDR)
	var now sim.Cycle
	return values{"bus.reserve_ns": nsPerOp(d, func() int {
		for i := 0; i < driveBatch; i++ {
			_, now = b.Reserve(now, cfg.LineBytes)
		}
		return driveBatch
	})}
}

// driveController keeps one QuadMC controller's MRQ full of reads and
// steps the engine it is attached to, as
// memctrl.TestAttachMatchesPlainTicking wires it, so the sleep and
// reschedule path runs as it does in a machine.
func driveController(s *driveStream, d time.Duration) values {
	cfg := config.QuadMC()
	timing := dram.TimingInCycles(cfg.Timing, cfg.CPUMHz)
	ranks := make([]*dram.Rank, cfg.RanksPerMC())
	for i := range ranks {
		ranks[i] = dram.NewRank(timing, cfg.BanksPerRank, cfg.RowBufferEntries, cfg.RefreshMS, cfg.CPUMHz)
	}
	completed := 0
	c := memctrl.New(memctrl.Params{
		AMap:      driveAddrMap(cfg),
		Ranks:     ranks,
		QueueCap:  cfg.MRQPerMC(),
		DataBus:   bus.New(cfg.BusBytes, cfg.BusDivider, cfg.BusDDR),
		Divider:   sim.NewDivider(cfg.BusDivider),
		FRFCFS:    cfg.SchedFRFCFS,
		LineBytes: cfg.LineBytes,
		Respond: func(r *mem.Request, now sim.Cycle) {
			completed++
			r.Complete(now)
		},
	})
	eng := sim.NewEngine()
	c.Attach(eng)
	ids := &mem.IDSource{}
	ns := nsPerOp(d, func() int {
		before := completed
		for i := 0; i < driveBatch; i++ {
			for !c.Full() {
				r := ids.NewRequest()
				r.Kind = mem.Read
				r.Line = s.line()
				r.Addr = r.Line
				c.Submit(r, eng.Now()+1)
			}
			eng.Step()
		}
		return completed - before
	})
	return values{"memctrl.req_ns": ns, "memctrl.drive_row_hit_rate": c.Stats().RowHitRate()}
}

// driveMesh injects uniform-random traffic into an 8×8 mesh at a fixed
// rate — six sends a cycle, one in three a data message — and ticks it.
func driveMesh(s *driveStream, d time.Duration) values {
	cfg := config.ManyCore(64, 4)
	dim := cfg.MeshDim()
	m := noc.New(noc.Params{
		W: dim, H: dim,
		LinkBytes:     cfg.MeshLinkBytes,
		LinkLatency:   sim.Cycle(cfg.MeshLinkLatency),
		RouterLatency: sim.Cycle(cfg.MeshRouterLatency),
		BufPkts:       cfg.MeshBufPkts,
	})
	delivered := 0
	m.Deliver = func(int, *noc.Msg, sim.Cycle) { delivered++ }
	nodes := uint64(m.Nodes())
	var now sim.Cycle
	ns := nsPerOp(d, func() int {
		before := delivered
		for i := 0; i < driveBatch; i++ {
			now++
			for j := 0; j < 6; j++ {
				a := s.scattered()
				bytes := 8
				if j%3 == 0 {
					bytes += cfg.LineBytes
				}
				m.Send(int(a%nodes), int(a/nodes%nodes), bytes, nil, now)
			}
			m.Tick(now)
		}
		return delivered - before
	})
	return values{"noc.msg_ns": ns, "noc.drive_avg_latency": m.Stats().AvgLatency()}
}
