package config

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestManyCorePresetsValidate(t *testing.T) {
	for _, tc := range []struct{ cores, mcs int }{
		{16, 4}, {64, 4}, {64, 8}, {256, 4}, {256, 16},
	} {
		c := ManyCore(tc.cores, tc.mcs)
		if err := c.Validate(); err != nil {
			t.Errorf("ManyCore(%d, %d): %v", tc.cores, tc.mcs, err)
		}
		if !c.Coherent() {
			t.Errorf("ManyCore(%d, %d): Coherent() = false", tc.cores, tc.mcs)
		}
		if d := c.MeshDim(); d*d != tc.cores {
			t.Errorf("ManyCore(%d, %d): MeshDim() = %d", tc.cores, tc.mcs, d)
		}
	}
}

func TestManycoreValidationRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(c *Config)
		want string
	}{
		{"non-square cores", func(c *Config) { c.Cores = 12; c.MCs = 4; c.RanksTotal = 16 }, "perfect square"},
		{"mcs not dividing cores", func(c *Config) { c.Cores = 36; c.MCs = 8; c.RanksTotal = 32; c.MRQTotal = 64; c.L2Banks = 32 }, "must divide"},
		{"mesh without mesi", func(c *Config) { c.Coherence = CoherenceShared }, "Coherence"},
		{"mesi without mesh", func(c *Config) { c.Topology = TopoBus }, "Topology=mesh"},
		{"stack cache mode", func(c *Config) { *c = *c.WithStackCache(StackCache, 64) }, "StackMode=memory"},
		{"dynamic mshr", func(c *Config) { c.DynamicMSHR = true }, "DynamicMSHR"},
		{"zero link bytes", func(c *Config) { c.MeshLinkBytes = 0 }, "MeshLinkBytes"},
		{"zero buf pkts", func(c *Config) { c.MeshBufPkts = 0 }, "MeshBufPkts"},
		{"zero priv l2", func(c *Config) { c.PrivL2KB = 0 }, "private L2"},
		{"zero dir latency", func(c *Config) { c.DirLatency = 0 }, "DirLatency"},
	}
	for _, tc := range cases {
		c := ManyCore(16, 4)
		tc.mut(c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestSharedModeCoreCountCapped(t *testing.T) {
	c := QuadMC()
	c.Cores = 16
	if err := c.Validate(); err == nil {
		t.Fatal("16 cores on the shared L2 validated; want an error pointing at the mesh hierarchy")
	} else if !strings.Contains(err.Error(), "mesh") {
		t.Fatalf("error %q does not point at the mesh hierarchy", err)
	}
}

// The run ledger content-addresses configurations by their JSON
// encoding. The scale-out knobs must stay invisible in seed-mode
// configs so every pre-existing RunID remains valid.
func TestSeedConfigJSONHasNoManycoreKeys(t *testing.T) {
	for _, c := range []*Config{Baseline2D(), Fast3D(), QuadMC()} {
		raw, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"Coherence", "Topology", "Mesh", "PrivL2", "DirLatency"} {
			if strings.Contains(string(raw), key) {
				t.Errorf("%s: seed config JSON leaks %q (breaks ledger RunIDs)", c.Name, key)
			}
		}
	}
}

// A many-core config's JSON is its ledger RunID and the bench's mesi64
// machines: testdata/manycore.golden holds the bytes ManyCore produced
// before it shared WithMESI with stacksim's -coherence mesi, one line per
// row below.
func TestManyCoreJSONGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/manycore.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, tc := range []struct{ cores, mcs int }{{16, 4}, {64, 4}, {64, 16}, {256, 4}} {
		raw, err := json.Marshal(ManyCore(tc.cores, tc.mcs))
		if err != nil {
			t.Fatal(err)
		}
		got.Write(raw)
		got.WriteByte('\n')
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("ManyCore JSON moved (so did every many-core RunID):\n%s\nwant\n%s", got.Bytes(), want)
	}
}
