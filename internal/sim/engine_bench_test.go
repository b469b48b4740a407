package sim

import "testing"

// benchEntries is the 64-core machine's handle count: 64 cores, DL1s,
// IL1s and private L2s, four directory banks, four controllers and the
// mesh.
const benchEntries = 265

// BenchmarkEngineSparse steps the census of a 64-core machine: 5 entries
// awake every cycle, 24 that sleep 17–40 cycles (each its own period)
// after every tick, so 1–40 cycles ahead at any moment, and the rest
// asleep until woken — one of them woken per cycle by the first awake
// entry, ticking that same cycle and sleeping again.
func BenchmarkEngineSparse(b *testing.B) {
	e := NewEngine()
	handles := make([]*TickHandle, benchEntries)
	const awake, timed = 5, 24
	next := awake + timed
	handles[0] = e.RegisterEvery(1, 0, TickFunc(func(Cycle) {
		handles[next].Wake()
		if next++; next == benchEntries {
			next = awake + timed
		}
	}))
	for i := 1; i < awake; i++ {
		handles[i] = e.RegisterEvery(1, 0, TickFunc(func(Cycle) {}))
	}
	for i := awake; i < awake+timed; i++ {
		period := Cycle(17 + i - awake)
		handles[i] = e.RegisterEvery(1, 0, TickFunc(func(now Cycle) { handles[i].SleepUntil(now + period) }))
	}
	for i := awake + timed; i < benchEntries; i++ {
		handles[i] = e.RegisterEvery(1, 0, TickFunc(func(Cycle) { handles[i].SleepUntil(FarFuture) }))
	}
	e.Run(1_000) // past every first tick, into the steady census
	before := e.TicksDelivered()
	for b.Loop() {
		e.Step()
	}
	perStep := float64(e.TicksDelivered()-before) / float64(b.N)
	b.ReportMetric(perStep, "ticks/step")
	// 5 awake, 1 woken, and on average 0.9 of the timed sleepers.
	if perStep < awake+1 || perStep > awake+1+timed {
		b.Fatalf("%.2f ticks a step, want the 6–30 the census allows", perStep)
	}
}

// BenchmarkEngineDense steps 265 armed no-op tickers, every one ticking
// every cycle: the shape of the benchmark harness's sim.step_ns drive,
// where the live set saves nothing and must cost nothing either.
func BenchmarkEngineDense(b *testing.B) {
	e := NewEngine()
	for i := 0; i < benchEntries; i++ {
		e.RegisterEvery(1, 0, TickFunc(func(Cycle) {}))
	}
	before := e.TicksDelivered()
	for b.Loop() {
		e.Step()
	}
	perStep := float64(e.TicksDelivered()-before) / float64(b.N)
	b.ReportMetric(perStep, "ticks/step")
	if perStep != benchEntries {
		b.Fatalf("%.2f ticks a step, want all %d", perStep, benchEntries)
	}
}
