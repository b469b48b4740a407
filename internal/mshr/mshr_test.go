package mshr

import (
	"slices"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/mem"
	"stackedsim/internal/sim"
)

func TestAllocateLookupRelease(t *testing.T) {
	f := New(config.MSHRVBF, 8)
	req := &mem.Request{ID: 1, Kind: mem.Read, Line: 0x1000}
	if _, _, found := f.Lookup(0x1000); found {
		t.Fatal("lookup on empty file found entry")
	}
	e, ok := f.Allocate(0x1000, req)
	if !ok {
		t.Fatal("Allocate failed on empty file")
	}
	if e.Primary() != req {
		t.Fatal("primary request lost")
	}
	got, probes, found := f.Lookup(0x1000)
	if !found || got != e {
		t.Fatalf("Lookup = %v,%v", got, found)
	}
	if probes < 1 {
		t.Fatalf("probes = %d, want >= 1", probes)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1", f.Len())
	}
	f.Release(e)
	if f.Len() != 0 {
		t.Fatalf("Len after Release = %d, want 0", f.Len())
	}
	if _, _, found := f.Lookup(0x1000); found {
		t.Fatal("released entry still found")
	}
}

func TestMergeSecondaryMiss(t *testing.T) {
	f := New(config.MSHRIdealCAM, 4)
	r1 := &mem.Request{ID: 1, Kind: mem.Read, Line: 0x40}
	r2 := &mem.Request{ID: 2, Kind: mem.Write, Line: 0x40}
	e, _ := f.Allocate(0x40, r1)
	e.Merge(r2)
	if e.Primary() != r1 || !slices.Equal(slices.Collect(e.Waiters.All()), []*mem.Request{r1, r2}) {
		t.Fatal("waiters are not r1 then r2")
	}
	if !e.Dirty {
		t.Fatal("merged write did not mark entry dirty")
	}
	if f.Len() != 1 {
		t.Fatal("merge should not consume an extra entry")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	f := New(config.MSHRVBF, 2)
	f.Allocate(0x40, nil)
	f.Allocate(0x80, nil)
	if !f.Full() {
		t.Fatal("Full() = false at capacity")
	}
	if _, ok := f.Allocate(0xc0, nil); ok {
		t.Fatal("Allocate beyond capacity succeeded")
	}
	if f.Len() != 2 || f.Stats().Allocs != 2 {
		t.Fatalf("a refused Allocate left %d entries, %d allocations; want 2, 2", f.Len(), f.Stats().Allocs)
	}
}

func TestIdealCAMAlwaysOneProbe(t *testing.T) {
	f := New(config.MSHRIdealCAM, 8)
	// Force collisions: lines 0x0, 0x200 both hash to slot 0 (key/64 mod 8).
	f.Allocate(0x0000, nil)
	f.Allocate(0x2000, nil)
	_, probes, found := f.Lookup(0x2000)
	if !found || probes != 1 {
		t.Fatalf("ideal CAM probes = %d found=%v, want 1,true", probes, found)
	}
}

func TestVBFBeatsLinearOnCollisions(t *testing.T) {
	mk := func(kind config.MSHRKind) *File {
		f := New(kind, 8)
		// All three lines home to slot 0: keys 0, 8, 16 (line = key*64).
		f.Allocate(0*64*8, nil)
		f.Allocate(1*64*8, nil)
		f.Allocate(2*64*8, nil)
		return f
	}
	v := mk(config.MSHRVBF)
	l := mk(config.MSHRLinearProbe)
	// Search an absent line with the same home: VBF probes only the set
	// bits (3), linear probing must scan the whole file (8).
	_, vp, _ := v.Lookup(3 * 64 * 8)
	_, lp, _ := l.Lookup(3 * 64 * 8)
	if vp != 3 {
		t.Fatalf("VBF probes = %d, want 3", vp)
	}
	if lp != 8 {
		t.Fatalf("linear probes = %d, want 8", lp)
	}
}

func TestStatsAccounting(t *testing.T) {
	f := New(config.MSHRVBF, 8)
	f.Allocate(0x40, nil)
	if _, _, found := f.Lookup(0x40); !found {
		t.Fatal("lookup of the allocated line missed")
	}
	if _, _, found := f.Lookup(0x80); found {
		t.Fatal("lookup of an absent line hit")
	}
	s := f.Stats()
	if s.Accesses != 2 || s.Allocs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ProbesPerAccess() <= 0 {
		t.Fatal("ProbesPerAccess not recorded")
	}
	if s.ProbeCounts.Count() != 2 {
		t.Fatalf("histogram count = %d, want 2", s.ProbeCounts.Count())
	}
}

// TestChangesCountsWhatCanChangeAnAnswer: the count moves with every
// allocation, release and limit — whatever can change what a lookup finds,
// what it costs or whether the bank is full — and with nothing else, so a
// caller the full bank turned away can tell when asking again is pointless.
func TestChangesCountsWhatCanChangeAnAnswer(t *testing.T) {
	f := New(config.MSHRVBF, 2)
	step := func(what string, moves bool, do func()) {
		t.Helper()
		before := f.Changes()
		do()
		if moved := f.Changes() != before; moved != moves {
			t.Fatalf("%s: change count moved = %t, want %t", what, moved, moves)
		}
	}
	var a *Entry
	step("Allocate", true, func() { a, _ = f.Allocate(0x40, nil) })
	step("Lookup hit", false, func() { f.Lookup(0x40) })
	step("Lookup miss", false, func() { f.Lookup(0x80) })
	step("Relookup", false, func() { f.Relookup(1, 10) })
	step("Merge", false, func() { a.Merge(&mem.Request{}) })
	step("SetLimit down", true, func() { f.SetLimit(1) })
	step("Allocate refused", false, func() {
		if _, ok := f.Allocate(0x80, nil); ok {
			t.Fatal("allocation past the limit succeeded")
		}
	})
	step("ResetStats", false, f.ResetStats)
	step("SetLimit up", true, func() { f.SetLimit(2) })
	step("Release", true, func() { f.Release(a) })
}

func TestReleaseStalePanics(t *testing.T) {
	f := New(config.MSHRVBF, 4)
	e, _ := f.Allocate(0x40, nil)
	f.Release(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	f.Release(e)
}

func TestForEach(t *testing.T) {
	f := New(config.MSHRVBF, 8)
	f.Allocate(0x40, nil)
	f.Allocate(0x80, nil)
	n := 0
	f.ForEach(func(*Entry) { n++ })
	if n != 2 {
		t.Fatalf("ForEach visited %d, want 2", n)
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(kind, 0) did not panic")
		}
	}()
	New(config.MSHRVBF, 0)
}

// fakeCounter simulates a performance counter whose rate depends on the
// currently applied divisor, letting us verify the tuner picks the best.
type fakeCounter struct {
	banks []*File
	count uint64
	// rate per divisor: keyed by active limit of bank 0.
	rate map[int]uint64
}

func (c *fakeCounter) advance() {
	c.count += c.rate[c.banks[0].Limit()]
}

func TestResizerPicksBestSetting(t *testing.T) {
	banks := []*File{New(config.MSHRVBF, 16)}
	// Pretend half capacity (limit 8) performs best.
	ctr := &fakeCounter{banks: banks, rate: map[int]uint64{16: 5, 8: 9, 4: 3}}
	r := NewResizer(banks, func() uint64 { return ctr.count }, 10, 100)
	for now := sim.Cycle(1); now <= 35; now++ {
		ctr.advance()
		r.Tick(now)
	}
	if r.Training() {
		t.Fatal("still training after all samples")
	}
	if r.Divisor() != 2 {
		t.Fatalf("winning divisor = %d, want 2", r.Divisor())
	}
	if banks[0].Limit() != 8 {
		t.Fatalf("bank limit = %d, want 8", banks[0].Limit())
	}
}

func TestResizerResamplesAfterEpoch(t *testing.T) {
	banks := []*File{New(config.MSHRVBF, 16)}
	ctr := &fakeCounter{banks: banks, rate: map[int]uint64{16: 9, 8: 5, 4: 3}}
	r := NewResizer(banks, func() uint64 { return ctr.count }, 10, 50)
	sawTrainingAgain := false
	fixes, training := 0, r.Training() // training→fixed transitions
	for now := sim.Cycle(1); now <= 200; now++ {
		ctr.advance()
		r.Tick(now)
		if now > 40 && r.Training() {
			sawTrainingAgain = true
		}
		if training && !r.Training() {
			fixes++
		}
		training = r.Training()
	}
	if !sawTrainingAgain {
		t.Fatal("tuner never resampled after the epoch expired")
	}
	if fixes < 2 {
		t.Fatalf("tuner settled on a setting %d times, want >= 2", fixes)
	}
}

func TestResizerAppliesToAllBanks(t *testing.T) {
	banks := []*File{New(config.MSHRVBF, 16), New(config.MSHRVBF, 16)}
	var n uint64
	r := NewResizer(banks, func() uint64 { n++; return n }, 5, 50)
	for now := sim.Cycle(1); now <= 20; now++ {
		r.Tick(now)
	}
	if banks[0].Limit() != banks[1].Limit() {
		t.Fatalf("bank limits diverged: %d vs %d", banks[0].Limit(), banks[1].Limit())
	}
}

func TestResizerGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResizer with no banks did not panic")
		}
	}()
	NewResizer(nil, func() uint64 { return 0 }, 10, 100)
}

func TestResizerMinLimitOne(t *testing.T) {
	banks := []*File{New(config.MSHRVBF, 2)} // cap/4 would be 0
	var n uint64
	r := NewResizer(banks, func() uint64 { n++; return n }, 5, 50)
	for now := sim.Cycle(1); now <= 12; now++ {
		r.Tick(now)
	}
	if banks[0].Limit() < 1 {
		t.Fatalf("limit = %d, want >= 1", banks[0].Limit())
	}
}
