package telemetry

import (
	"strings"
	"testing"

	"stackedsim/internal/sim"
)

func cyc(n int64) sim.Cycle { return sim.Cycle(n) }

func TestNilRegistryHandsOutNoOpHandles(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x.count")
	g := reg.Gauge("x.level")
	gf := reg.GaugeFunc("x.poll", func() float64 { return 42 })
	d := reg.Distribution("x.dist")
	if c != nil || g != nil || gf != nil || d != nil {
		t.Fatalf("nil registry must hand out nil handles, got %v %v %v %v", c, g, gf, d)
	}
	// Every method on a nil handle must be a safe no-op.
	c.Inc()
	c.Add(7)
	g.Set(3)
	d.Observe(5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	if d.Summary() != "empty" {
		t.Fatalf("nil distribution summary = %q", d.Summary())
	}
	if reg.Names() != nil {
		t.Fatal("nil registry must report no names")
	}
}

func TestCounterGaugeDistribution(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("mc0.reads")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	g := reg.Gauge("mc0.readq.depth")
	g.Set(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v, want 7", g.Value())
	}
	level := 3.0
	p := reg.GaugeFunc("l2.mshr.occupancy", func() float64 { return level })
	level = 11
	if p.Value() != 11 {
		t.Fatalf("polled gauge = %v, want 11", p.Value())
	}
	p.Set(99) // Set must not override a poll-driven gauge
	if p.Value() != 11 {
		t.Fatalf("Set overrode a poll-driven gauge: %v", p.Value())
	}
	d := reg.Distribution("mc0.queue.delay")
	for _, v := range []int{1, 2, 2, 3} {
		d.Observe(v)
	}
	if d.Histogram().Count() != 4 {
		t.Fatalf("distribution count = %d, want 4", d.Histogram().Count())
	}
	if !strings.Contains(d.Summary(), "p50=2") {
		t.Fatalf("summary %q missing p50=2", d.Summary())
	}
}

func TestRegistryNameCollisions(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("dup.name")
	b := reg.Counter("dup.name")
	if a != b {
		t.Fatal("same-kind re-registration must return the original handle")
	}
	if n := len(reg.Names()); n != 1 {
		t.Fatalf("duplicate registration grew the registry to %d names", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge must panic")
		}
	}()
	reg.Gauge("dup.name")
}

func TestRegistrationOrderIsExportOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z.last.first")
	reg.Gauge("a.alpha")
	reg.Distribution("m.middle")
	got := reg.Names()
	want := []string{"z.last.first", "a.alpha", "m.middle"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q (registration order)", i, got[i], want[i])
		}
	}
}

func TestSamplerSnapshotsAndCSV(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("evts")
	depth := 0.0
	reg.GaugeFunc("q.depth", func() float64 { return depth })
	reg.Distribution("lat") // must not appear as a CSV column

	s := NewSampler(reg, 10)
	for now := int64(1); now <= 30; now++ {
		c.Inc()
		depth = float64(now % 4)
		s.Tick(cyc(now))
	}
	if len(s.Rows()) != 3 {
		t.Fatalf("%d samples, want 3 (cycles 10,20,30)", len(s.Rows()))
	}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "cycle,evts,q.depth" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "10,10,2" || lines[3] != "30,30,2" {
		t.Fatalf("rows = %q / %q", lines[1], lines[3])
	}
}

// TestSamplerTrackWindow pins the derived per-window column contract:
// a cumulative counter tracked with TrackWindow gains a "<name>.window"
// column holding each interval's delta, appended after the registry
// columns.
func TestSamplerTrackWindow(t *testing.T) {
	reg := NewRegistry()
	skipped := 0.0
	reg.GaugeFunc("engine.cycles_skipped", func() float64 { return skipped })
	s := NewSampler(reg, 10)
	s.TrackWindow("engine.cycles_skipped")
	s.TrackWindow("engine.cycles_skipped") // duplicate is ignored
	for now := int64(1); now <= 30; now++ {
		if now%2 == 0 {
			skipped++ // 5 skips per 10-cycle window
		}
		s.Tick(cyc(now))
	}
	rows := s.Rows()
	if len(rows) != 3 {
		t.Fatalf("%d samples, want 3", len(rows))
	}
	// First window's delta is the cumulative value at the first sample;
	// later windows are true deltas.
	for i, want := range []float64{5, 5, 5} {
		if len(rows[i].Window) != 1 || rows[i].Window[0] != want {
			t.Fatalf("row %d window = %v, want [%v]", i, rows[i].Window, want)
		}
	}
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "cycle,engine.cycles_skipped,engine.cycles_skipped.window" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != "20,10,5" {
		t.Fatalf("row = %q, want cumulative 10 and window 5", lines[2])
	}
}

// TestSamplerFinalizeCapturesTail pins the end-of-run contract: a run
// whose final cycle is not a sample boundary still exports its tail
// partial interval, and Finalize is idempotent — calling it twice, or
// after a boundary hit, adds nothing.
func TestSamplerFinalizeCapturesTail(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("evts")
	s := NewSampler(reg, 10)
	for now := int64(1); now <= 27; now++ {
		c.Inc()
		s.Tick(cyc(now))
	}
	if len(s.Rows()) != 2 {
		t.Fatalf("%d samples before Finalize, want 2 (cycles 10,20)", len(s.Rows()))
	}
	s.Finalize(cyc(27))
	rows := s.Rows()
	if len(rows) != 3 || rows[2].Cycle != 27 {
		t.Fatalf("tail sample missing: %d rows, last at %v", len(rows), rows[len(rows)-1].Cycle)
	}
	if rows[2].Values[0] != 27 {
		t.Fatalf("tail sample value = %v, want 27", rows[2].Values[0])
	}
	s.Finalize(cyc(27)) // idempotent
	if len(s.Rows()) != 3 {
		t.Fatalf("repeated Finalize grew the series to %d rows", len(s.Rows()))
	}

	// A run ending exactly on a boundary must not gain a duplicate row.
	s2 := NewSampler(reg, 10)
	for now := int64(28); now <= 30; now++ {
		s2.Tick(cyc(now))
	}
	if len(s2.Rows()) != 1 {
		t.Fatalf("boundary sampler has %d rows, want 1", len(s2.Rows()))
	}
	s2.Finalize(cyc(30))
	if len(s2.Rows()) != 1 {
		t.Fatal("Finalize duplicated the boundary sample")
	}
	var fs *Sampler
	fs.Finalize(5) // nil-safe
}

func TestNilSamplerAndTracerAreNoOps(t *testing.T) {
	var s *Sampler
	s.Tick(5)
	s.Snapshot(5)
	if s.Rows() != nil {
		t.Fatal("nil sampler must have no rows")
	}
	var tr *Tracer
	if tr.Samples(0) {
		t.Fatal("nil tracer must never sample")
	}
	track := tr.Track("p", "t")
	tr.Complete(tr.Lane("p", "t", 1, 2), "x", 1, 2, "")
	tr.Instant(track, "y", 1, "")
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != `{"traceEvents":[]}` {
		t.Fatalf("nil tracer JSON = %q", b.String())
	}
}

func TestTracerSamplingIsDeterministicModulo(t *testing.T) {
	tr := NewTracer(4)
	var admitted []int
	for i := 0; i < 12; i++ {
		if tr.Samples(uint64(i)) {
			admitted = append(admitted, i)
		}
	}
	want := []int{0, 4, 8}
	if len(admitted) != len(want) {
		t.Fatalf("admitted %v, want %v", admitted, want)
	}
	for i := range want {
		if admitted[i] != want[i] {
			t.Fatalf("admitted %v, want %v", admitted, want)
		}
	}
}

func TestTracerEventCap(t *testing.T) {
	tr := NewTracer(1)
	tr.MaxEvents = 4
	track := tr.Track("p", "t")
	for i := 0; i < 10; i++ {
		tr.Instant(track, "e", cyc(int64(i)), "")
	}
	if tr.Len() > 4 {
		t.Fatalf("buffer grew to %d events past the cap of 4", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Fatal("expected drops past the cap")
	}
}
