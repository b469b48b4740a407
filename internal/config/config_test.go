package config

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	presets := map[string]*Config{
		"2D":      Baseline2D(),
		"3D":      Simple3D(),
		"3D-wide": Wide3D(),
		"3D-fast": Fast3D(),
		"dualMC":  DualMC(),
		"quadMC":  QuadMC(),
	}
	for name, c := range presets {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBaseline2DMatchesTable1(t *testing.T) {
	c := Baseline2D()
	if c.Cores != 4 || c.ROBSize != 96 || c.CommitWidth != 4 {
		t.Fatalf("core params off: %+v", c)
	}
	if c.L2SizeKB != 12*1024 || c.L2Ways != 24 || c.L2Banks != 16 || c.L2MSHRs != 8 {
		t.Fatalf("L2 params off: %+v", c)
	}
	if c.BusBytes != 8 || c.BusDivider != 4 || !c.BusDDR {
		t.Fatalf("FSB params off: %+v", c)
	}
	if c.RanksTotal != 8 || c.BanksPerRank != 8 || c.MemoryGB != 8 {
		t.Fatalf("memory params off: %+v", c)
	}
	if c.Timing.TRASns != 36 || c.Timing.TRCDns != 12 {
		t.Fatalf("2D timing off: %+v", c.Timing)
	}
	if c.RefreshMS != 64 {
		t.Fatalf("refresh = %d, want 64", c.RefreshMS)
	}
}

func TestProgressionOfPresets(t *testing.T) {
	d3 := Simple3D()
	if d3.BusDivider != 1 {
		t.Fatal("3D bus must run at core clock")
	}
	if d3.RefreshMS != 32 {
		t.Fatal("stacked DRAM must refresh at 32ms")
	}
	if d3.BusBytes != 8 {
		t.Fatal("3D keeps the 64-bit bus")
	}
	w := Wide3D()
	if w.BusBytes != 64 {
		t.Fatal("3D-wide must move full lines")
	}
	f := Fast3D()
	if f.Timing.TRASns != 24.3 {
		t.Fatal("3D-fast must use true-3D timing")
	}
	if f.MCs != 1 || f.RanksTotal != 8 {
		t.Fatal("3D-fast keeps 1 MC / 8 ranks")
	}
}

func TestAggressivePresets(t *testing.T) {
	q := QuadMC()
	if q.MCs != 4 || q.RanksTotal != 16 || q.RowBufferEntries != 4 {
		t.Fatalf("QuadMC params: %+v", q)
	}
	if !q.L2PageInterleave {
		t.Fatal("aggressive orgs must use page-aligned L2 interleaving")
	}
	if q.RanksPerMC() != 4 {
		t.Fatalf("RanksPerMC = %d, want 4", q.RanksPerMC())
	}
	if q.MRQPerMC() != 8 {
		t.Fatalf("MRQPerMC = %d, want 8 (constant 32 aggregate)", q.MRQPerMC())
	}
	d := DualMC()
	if d.MCs != 2 || d.RanksTotal != 8 || d.MRQPerMC() != 16 {
		t.Fatalf("DualMC params: %+v", d)
	}
}

func TestWithMSHR(t *testing.T) {
	base := QuadMC()
	c := base.WithMSHR(4, MSHRVBF, true)
	if c.L2TotalMSHRs() != 32 {
		t.Fatalf("L2TotalMSHRs = %d, want 32", c.L2TotalMSHRs())
	}
	if c.L2MSHRKind != MSHRVBF || !c.DynamicMSHR {
		t.Fatalf("MSHR knobs not applied: %+v", c)
	}
	if base.L2MSHRMult != 1 || base.DynamicMSHR {
		t.Fatal("WithMSHR mutated the receiver")
	}
	if !strings.Contains(c.Name, "vbf") || !strings.Contains(c.Name, "dyn") {
		t.Fatalf("name %q missing MSHR suffix", c.Name)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.CPUMHz = 0 },
		func(c *Config) { c.LineBytes = 60 },
		func(c *Config) { c.L1MSHRs = 0 },
		func(c *Config) { c.L2Banks = 0 },
		func(c *Config) { c.L2ExtraKB = -1 },
		func(c *Config) { c.BusDivider = 0 },
		func(c *Config) { c.MRQTotal = 0 },
		func(c *Config) { c.RanksTotal = 7; c.MCs = 2 },
		func(c *Config) { c.BanksPerRank = 0 },
		func(c *Config) { c.PageBytes = 1000 },
		func(c *Config) { c.RowBufferEntries = 0 },
		func(c *Config) { c.L2MSHRMult = 0 },
		func(c *Config) { c.MemoryGB = 0 },
		func(c *Config) { c.MemoryGB = 256 }, // 2^32 lines of 64 bytes
		func(c *Config) { c.MemoryGB, c.LineBytes = 128, 32 },
		func(c *Config) { c.L2Banks = 6; c.MCs = 4 },
	}
	for i, mutate := range mutations {
		c := QuadMC()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d produced a config that still validates", i)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := Fast3D()
	b := a.Clone()
	b.MCs = 4
	b.RanksTotal = 16
	if a.MCs != 1 {
		t.Fatal("Clone shares state with the original")
	}
}

func TestMSHRKindString(t *testing.T) {
	if MSHRIdealCAM.String() != "ideal-cam" || MSHRLinearProbe.String() != "linear-probe" || MSHRVBF.String() != "vbf" {
		t.Fatal("MSHRKind strings wrong")
	}
	if MSHRKind(42).String() != "mshrkind(42)" {
		t.Fatal("unknown MSHRKind string wrong")
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Cores", "3.333 GHz", "12MB", "96 entries", "tRAS=36ns", "tRAS=24.3ns", "64ms off-chip, 32ms on-stack"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestStackModeParseAndString(t *testing.T) {
	for _, tc := range []struct {
		s string
		m StackMode
	}{{"memory", StackMemory}, {"cache", StackCache}, {"memcache", StackMemCache}} {
		m, err := ParseStackMode(tc.s)
		if err != nil || m != tc.m {
			t.Fatalf("ParseStackMode(%q) = %v, %v", tc.s, m, err)
		}
		if m.String() != tc.s {
			t.Fatalf("%v.String() = %q, want %q", m, m.String(), tc.s)
		}
	}
	if _, err := ParseStackMode("hybrid"); err == nil {
		t.Fatal("ParseStackMode must reject unknown modes")
	}
	if s := StackMode(9).String(); !strings.Contains(s, "9") {
		t.Fatalf("out-of-range StackMode string = %q", s)
	}
}

func TestWithStackCacheValidates(t *testing.T) {
	for _, mode := range []StackMode{StackCache, StackMemCache} {
		c := Fast3D().WithStackCache(mode, 64)
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if !strings.Contains(c.Name, mode.String()) {
			t.Fatalf("derived name %q missing mode %q", c.Name, mode)
		}
	}
	// Memory mode ignores every stack knob, even zeroed ones.
	if err := Fast3D().Validate(); err != nil {
		t.Fatalf("memory mode: %v", err)
	}
	if hot := Fast3D().WithStackCache(StackMemCache, 64).StackHotBytes(); hot != 32<<20 {
		t.Fatalf("memcache 50%% of 64MB = %d bytes, want %d", hot, 32<<20)
	}
	if hot := Fast3D().WithStackCache(StackCache, 64).StackHotBytes(); hot != 0 {
		t.Fatalf("cache-mode hot bytes = %d, want 0", hot)
	}
}

func TestValidateCatchesBadStackConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.StackCapMB = 0 },
		func(c *Config) { c.StackCapMB = 16 << 10 }, // > MemoryGB
		func(c *Config) { c.StackWays = 0 },
		func(c *Config) { c.StackFillBytes = 48 },              // not a power of two
		func(c *Config) { c.StackFillBytes = 32 },              // < LineBytes
		func(c *Config) { c.StackFillBytes = 2 * c.PageBytes }, // > PageBytes
		func(c *Config) { c.StackTagLatency = 0 },              // SRAM tags need latency
		func(c *Config) { c.StackTagsInSRAM = false },          // the only tag directory is SRAM
		func(c *Config) { c.StackMode, c.StackHotFrac, c.StackTagsInSRAM = StackMemCache, 0.5, false },
		func(c *Config) { c.StackHotFrac = 1.5 },
		func(c *Config) { c.StackMode = StackMemCache; c.StackHotFrac = 0 },
		func(c *Config) { c.BackingRanks = 0 },
		func(c *Config) { c.BackingBusBytes = 0 },
		func(c *Config) { c.BackingMRQ = 0 },
		func(c *Config) { c.StackMode = StackMode(7) },
	}
	for i, mutate := range bad {
		c := Fast3D().WithStackCache(StackCache, 64)
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad stack config #%d validated", i)
		}
	}
}

// TestValidateCatchesBadCacheGeometry: a cache whose size does not divide
// into sets panics the array constructor, and configs arrive from
// outside (stacksim's flags, a ledger manifest), so Validate must turn
// each away first.
func TestValidateCatchesBadCacheGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		base *Config
		mut  func(*Config)
		want string // "" = must validate
	}{
		{"L1 ways not dividing", QuadMC(), func(c *Config) { c.L1Ways = 5 }, "L1 of"},
		{"L1 ways not dividing, many-core", ManyCore(16, 4), func(c *Config) { c.L1Ways = 5 }, "L1 of"},
		{"L2 bank without a set", QuadMC(), func(c *Config) { c.L2SizeKB, c.L2Ways = 1, 7 }, "L2 of"},
		{"L2 bank smaller than a set", QuadMC(), func(c *Config) { c.L2SizeKB = 16 }, "L2 of"},
		{"private L2 ways not dividing", ManyCore(16, 4), func(c *Config) { c.PrivL2Ways = 3 }, "private L2 of"},
		// Figure 6a's widened L2 leaves each bank a partial set, which
		// the bank drops: 533 sets, not an error.
		{"L2 bank with a remainder", QuadMC(), func(c *Config) { c.L2ExtraKB = 512 }, ""},
		// The many-core machine builds no shared L2 and ignores its size.
		{"shared L2 unused", ManyCore(16, 4), func(c *Config) { c.L2SizeKB, c.L2Ways = 1, 7 }, ""},
	} {
		c := tc.base
		tc.mut(c)
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: validated", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
