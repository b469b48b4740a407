package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"stackedsim/internal/core"
	"stackedsim/internal/cpu"
)

// span is one timed call the harness made into the simulator. Spans of
// one rep share it as their ancestor through Parent (-1 = root).
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing, which is how untraced reps run.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Parent: parent, StartNS: int64(time.Since(l.origin))})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l != nil {
		l.spans[id].EndNS = int64(time.Since(l.origin))
	}
}

// timed runs f as a child span of parent and returns its wall time.
func (l *spanLog) timed(name string, parent int, f func()) time.Duration {
	id := l.begin(name, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.end(id)
	return d
}

func (l *spanLog) write(path string) error {
	raw, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// timedSource counts every Next of a μop source and times every 64th,
// so the generator's share of a run can be estimated at a fraction of
// the cost of timing each call.
type timedSource struct {
	src            cpu.UOpSource
	calls, sampled uint64
	sampledNS      int64
}

const sourceSampleMask = 63

func (t *timedSource) Next() cpu.UOp {
	t.calls++
	if t.calls&sourceSampleMask != 0 {
		return t.src.Next()
	}
	t0 := time.Now()
	op := t.src.Next()
	t.sampledNS += int64(time.Since(t0))
	t.sampled++
	return op
}

// sourceTracer hands out timedSources and sums them up.
type sourceTracer struct{ sources []*timedSource }

func (s *sourceTracer) wrap(src cpu.UOpSource) cpu.UOpSource {
	t := &timedSource{src: src}
	s.sources = append(s.sources, t)
	return t
}

// counters reports the calls made and their estimated share of wall.
func (s *sourceTracer) counters(wall time.Duration) values {
	var calls, estNS float64
	for _, t := range s.sources {
		calls += float64(t.calls)
		if t.sampled > 0 {
			estNS += float64(t.sampledNS) / float64(t.sampled) * float64(t.calls)
		}
	}
	return values{
		"workload.next_calls": calls,
		"workload.next_share": estNS / float64(wall),
	}
}

// modelCounters folds the simulated statistics of one run, or of every
// cell of a figure, into the per-layer metrics: counts add up, rates
// average over cells.
func modelCounters(cells []core.Metrics) values {
	n := float64(len(cells))
	v := values{"cpu.min_core_ipc": math.Inf(1)}
	var nocDelivered, nocLatency, nocHops float64
	for _, m := range cells {
		v["cpu.hmipc"] += m.HMIPC / n
		for _, ipc := range m.IPC {
			v["cpu.min_core_ipc"] = min(v["cpu.min_core_ipc"], ipc)
		}
		v["cache.l2_miss_rate"] += m.L2MissRate / n
		v["mshr.probes_per_access"] += m.ProbesPerAccess / n
		v["mshr.full_stalls"] += float64(m.MSHRFullStalls)
		v["dram.row_hit_rate"] += m.RowHitRate / n
		v["dram.reads"] += float64(m.DRAMReads)
		v["dram.writes"] += float64(m.DRAMWrites)
		v["bus.utilization"] += m.BusUtilization / n
		v["coherence.miss_rate"] += m.Coherence.MissRate() / n
		v["coherence.invalidations"] += float64(m.Coherence.Invalidations)
		v["coherence.c2c_transfers"] += float64(m.Coherence.C2CTransfers)
		v["coherence.deferred"] += float64(m.Coherence.Deferred)
		v["noc.credit_stalls"] += float64(m.NoC.CreditStalls)
		nocDelivered += float64(m.NoC.Delivered)
		nocLatency += float64(m.NoC.LatencySum)
		nocHops += float64(m.NoC.Hops)
	}
	v["noc.delivered"] = nocDelivered
	v["noc.avg_latency"], v["noc.avg_hops"] = 0, 0
	if nocDelivered > 0 {
		v["noc.avg_latency"] = nocLatency / nocDelivered
		v["noc.avg_hops"] = nocHops / nocDelivered
	}
	return v
}

// tickGroups names the layers behind Engine.TicksByComponent, in the
// order core.NewSystemFromSources and coherence.Fabric.Register
// document: cores, L1s, IL1s, then private L2s + directory banks + the
// mesh or the one shared L2, then the controllers, then the resizer.
var tickGroups = []string{"cpu", "l1", "il1", "l2", "privl2", "dir", "noc", "memctrl", "resizer"}

// ticksByLayer splits the engine's per-handle tick counts into
// tickGroups. It fails when the group sizes do not add up to the
// handle count: the registration order changed, and every share would
// be attributed to the wrong layer.
func ticksByLayer(sys *core.System) (map[string]uint64, error) {
	sizes := map[string]int{
		"cpu": len(sys.Cores), "l1": len(sys.L1s), "il1": len(sys.IL1s),
		"memctrl": len(sys.MCs),
	}
	if sys.Coh != nil {
		// The fabric builds a private L2 for every core of the
		// config, sourced or idle, and one directory bank per MC.
		sizes["privl2"], sizes["dir"], sizes["noc"] = sys.Cfg.Cores, sys.Cfg.MCs, 1
	} else {
		sizes["l2"] = 1
	}
	if sys.Resizer != nil {
		sizes["resizer"] = 1
	}
	ticks := sys.Engine.TicksByComponent()
	var want int
	for _, n := range sizes {
		want += n
	}
	if want != len(ticks) || sys.Stack != nil {
		return nil, fmt.Errorf("tick groups cover %d handles, engine has %d (stack layer: %v)", want, len(ticks), sys.Stack != nil)
	}
	out := make(map[string]uint64, len(tickGroups))
	for _, g := range tickGroups {
		for _, n := range ticks[:sizes[g]] {
			out[g] += n
		}
		ticks = ticks[sizes[g]:]
	}
	return out, nil
}

// engineCounters reads the engine's work-avoidance counters and the
// request pool's hit rate over the whole run, warmup included.
func engineCounters(sys *core.System) (values, error) {
	byLayer, err := ticksByLayer(sys)
	if err != nil {
		return nil, err
	}
	rep := sys.EngineReport()
	v := values{
		"sim.ticks_per_cycle": rep.TicksPerCycle,
		"sim.skip_ratio":      rep.SkipRatio,
		"mem.pool_hit_rate":   rep.PoolHitRate,
	}
	for _, g := range tickGroups {
		v["sim.ticks_share."+g] = float64(byLayer[g]) / float64(rep.TicksDelivered)
	}
	return v, nil
}

// noEngineCounters stands in for engineCounters on fig4, whose engines
// live and die inside core.Runner and cannot be read from outside.
func noEngineCounters() values {
	v := values{"sim.ticks_per_cycle": 0, "sim.skip_ratio": 0, "mem.pool_hit_rate": 0}
	for _, g := range tickGroups {
		v["sim.ticks_share."+g] = 0
	}
	return v
}
