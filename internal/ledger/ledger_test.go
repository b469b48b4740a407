package ledger

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type fakeConfig struct {
	Name    string
	Cores   int
	Seed    int64
	Measure int64
}

func testRecord(name string, seed int64) *Record {
	cfg := fakeConfig{Name: name, Cores: 4, Seed: seed, Measure: 600000}
	workload := []string{"mix:VH1"}
	id, digest, err := RunID(cfg, workload, "test-v1")
	if err != nil {
		panic(err)
	}
	return &Record{
		Manifest: Manifest{
			ID:           id,
			ConfigDigest: digest,
			Config:       name,
			Workload:     workload,
			Seed:         seed,
			Experiment:   "mix",
			SimVersion:   "test-v1",
			StartedAt:    "2026-08-08T00:00:00Z",
			WallSeconds:  1.5,
			Cycles:       600000,
		},
		Summary: []byte(`{"HMIPC":1.2345678901234567,"IPC":[1.5,0.25],"Energy":{"ReadUJ":42.5}}`),
	}
}

func TestRunIDDeterministicAndSensitive(t *testing.T) {
	cfg := fakeConfig{Name: "quadMC", Cores: 4, Seed: 1, Measure: 600000}
	id1, dg1, err := RunID(cfg, []string{"mix:VH1"}, "v1")
	if err != nil {
		t.Fatal(err)
	}
	id2, dg2, _ := RunID(cfg, []string{"mix:VH1"}, "v1")
	if id1 != id2 || dg1 != dg2 {
		t.Fatalf("RunID not deterministic: %s/%s vs %s/%s", id1, dg1, id2, dg2)
	}
	if len(id1) != 16 || dg1[:16] != id1 {
		t.Fatalf("id should be 16-char digest prefix, got %q of %q", id1, dg1)
	}
	for _, tc := range []struct {
		name string
		id   func() string
	}{
		{"seed", func() string { c := cfg; c.Seed = 2; i, _, _ := RunID(c, []string{"mix:VH1"}, "v1"); return i }},
		{"workload", func() string { i, _, _ := RunID(cfg, []string{"mix:H2"}, "v1"); return i }},
		{"version", func() string { i, _, _ := RunID(cfg, []string{"mix:VH1"}, "v2"); return i }},
		{"measure", func() string { c := cfg; c.Measure = 1; i, _, _ := RunID(c, []string{"mix:VH1"}, "v1"); return i }},
	} {
		if got := tc.id(); got == id1 {
			t.Errorf("changing %s did not change the run ID", tc.name)
		}
	}
}

func TestPutGetRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("quadMC", 1)
	added, err := l.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !added {
		t.Fatal("first Put should add")
	}
	// Reopen and read back: values must round-trip exactly.
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l2.Get(rec.Manifest.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Manifest, rec.Manifest) {
		t.Fatalf("manifest mismatch:\n got %+v\nwant %+v", got.Manifest, rec.Manifest)
	}
	if want := map[string]float64{"hmipc": 1.2345678901234567, "ipc.0": 1.5, "ipc.1": 0.25, "energy.readuj": 42.5}; !reflect.DeepEqual(got.Metrics(), want) {
		t.Fatalf("metrics = %v, want %v (must round-trip exactly)", got.Metrics(), want)
	}
	// Re-marshalling the read-back record must reproduce the on-disk
	// bytes exactly — the determinism contract.
	want, err := marshalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := marshalRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	for name := range want {
		onDisk, err := os.ReadFile(filepath.Join(dir, "runs", rec.Manifest.ID, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(onDisk) != string(want[name]) {
			t.Errorf("%s on disk differs from marshal", name)
		}
		if string(again[name]) != string(want[name]) {
			t.Errorf("%s not byte-identical after reopen", name)
		}
	}
}

// TestMetricsDerivedFromSummary pins the one metric namespace: struct
// fields and map keys become lower-case dotted segments, array elements
// numeric ones, booleans 0/1, and strings are not metrics.
func TestMetricsDerivedFromSummary(t *testing.T) {
	rec := Record{Summary: []byte(`{"Config":"x","HMIPC":1.5,"IPC":[1,2],"Cycles":10,` +
		`"NoC":{"Delivered":7,"PerLink":{"N0":3}},"Clean":true,"Dirty":false}`)}
	want := map[string]float64{"hmipc": 1.5, "ipc.0": 1, "ipc.1": 2, "cycles": 10,
		"noc.delivered": 7, "noc.perlink.n0": 3, "clean": 1, "dirty": 0}
	if got := rec.Metrics(); !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics = %v, want %v", got, want)
	}
}

// TestPutRefusesRecordWithoutSummary: a record's metrics are derived
// from its summary, so a record without a decodable one is not stored.
func TestPutRefusesRecordWithoutSummary(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, summary := range []string{"", `{"HMIPC":`, `{"HMIPC":1e400}`} {
		rec := testRecord("quadMC", 1)
		rec.Summary = []byte(summary)
		if _, err := l.Put(rec); err == nil {
			t.Errorf("Put with summary %q succeeded", summary)
		}
	}
	if ms, _ := l.Manifests(); len(ms) != 0 {
		t.Fatalf("refused records reached the index: %+v", ms)
	}
}

// TestReadsStoreWithRecordedMetrics: a store written when each run kept
// its own metrics.json (in whatever namespace the recording tool used)
// and an engine block in its manifest still reads, and its metrics come
// from the summary like every other record's.
func TestReadsStoreWithRecordedMetrics(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const id = "0123456789abcdef"
	manifest := `{"id":"` + id + `","config_digest":"` + id + `00","config":"quadMC","seed":1,` +
		`"sim_version":"stackedsim-v8","cycles":600000,` +
		`"engine":{"ticks_delivered":100,"cycles_skipped":50,"ticks_per_cycle":2.5,"skip_ratio":0.083,"pool_hit_rate":0.9}}`
	run := filepath.Join(dir, "runs", id)
	if err := os.MkdirAll(run, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"manifest.json": manifest,
		"metrics.json":  `{"cpu.hmipc":0.5,"engine.skip_ratio":0.083}`,
		"summary.json":  `{"HMIPC":0.5,"Cycles":600000}`,
	} {
		if err := os.WriteFile(filepath.Join(run, name), []byte(data+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), []byte(manifest+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := l.Manifests()
	if err != nil || len(ms) != 1 || ms[0].ID != id || ms[0].Cycles != 600000 {
		t.Fatalf("Manifests = %+v, %v", ms, err)
	}
	rec, err := l.Get("latest")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"hmipc": 0.5, "cycles": 600000}; !reflect.DeepEqual(rec.Metrics(), want) {
		t.Fatalf("metrics = %v, want %v (metrics.json must be ignored)", rec.Metrics(), want)
	}
}

func TestPutDedupes(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := testRecord("quadMC", 1)
	if added, err := l.Put(rec); err != nil || !added {
		t.Fatalf("first Put: added=%v err=%v", added, err)
	}
	if added, err := l.Put(rec); err != nil || added {
		t.Fatalf("second Put must dedupe: added=%v err=%v", added, err)
	}
	ms, err := l.Manifests()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("index should hold exactly one manifest, got %d", len(ms))
	}
}

func TestResolveLatestAndTags(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r1 := testRecord("quadMC", 1)
	r2 := testRecord("quadMC", 2)
	for _, r := range []*Record{r1, r2} {
		if _, err := l.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	id, err := l.Resolve("latest")
	if err != nil {
		t.Fatal(err)
	}
	if id != r2.Manifest.ID {
		t.Fatalf("latest = %s, want %s", id, r2.Manifest.ID)
	}
	if err := l.Tag("blessed", r1.Manifest.ID); err != nil {
		t.Fatal(err)
	}
	id, err = l.Resolve("blessed")
	if err != nil {
		t.Fatal(err)
	}
	if id != r1.Manifest.ID {
		t.Fatalf("tag blessed = %s, want %s", id, r1.Manifest.ID)
	}
	// Re-tagging moves the pin.
	if err := l.Tag("blessed", "latest"); err != nil {
		t.Fatal(err)
	}
	if id, _ := l.Resolve("blessed"); id != r2.Manifest.ID {
		t.Fatalf("re-tag: blessed = %s, want %s", id, r2.Manifest.ID)
	}
	tags, err := l.Tags()
	if err != nil {
		t.Fatal(err)
	}
	if tags["blessed"] != r2.Manifest.ID {
		t.Fatalf("Tags() = %v", tags)
	}
	if _, err := l.Resolve("no-such-run"); err == nil {
		t.Fatal("resolving an unknown ref must fail")
	}
	if err := l.Tag("latest", r1.Manifest.ID); err == nil {
		t.Fatal("tag named latest must be rejected")
	}
	if err := l.Tag("bad/name", r1.Manifest.ID); err == nil {
		t.Fatal("tag with path separator must be rejected")
	}
}

func TestResolveRejectsTraversal(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"../escape", "a/b", "..", ".." + string(filepath.Separator) + "x", ""} {
		if _, err := l.Resolve(ref); err == nil {
			t.Errorf("Resolve(%q) must fail", ref)
		}
	}
}

func TestListFilters(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := testRecord("quadMC", 1)
	b := testRecord("baseline2D", 1)
	b.Manifest.Experiment = "single"
	for _, r := range []*Record{a, b} {
		if _, err := l.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.List(Filter{Config: "quadMC"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != a.Manifest.ID {
		t.Fatalf("Config filter: %+v", got)
	}
	got, _ = l.List(Filter{Experiment: "single"})
	if len(got) != 1 || got[0].ID != b.Manifest.ID {
		t.Fatalf("Experiment filter: %+v", got)
	}
	got, _ = l.List(Filter{ConfigDigest: a.Manifest.ConfigDigest})
	if len(got) != 1 || got[0].ID != a.Manifest.ID {
		t.Fatalf("ConfigDigest filter: %+v", got)
	}
	// Short ID works as a digest filter too.
	got, _ = l.List(Filter{ConfigDigest: a.Manifest.ID})
	if len(got) != 1 || got[0].ID != a.Manifest.ID {
		t.Fatalf("ID-as-digest filter: %+v", got)
	}
	got, _ = l.List(Filter{})
	if len(got) != 2 {
		t.Fatalf("empty filter should match all, got %d", len(got))
	}
}

func TestCompare(t *testing.T) {
	a := map[string]float64{"ipc": 1.10, "mpki": 5.0, "new": 1, "zero": 3, "nan": math.NaN(), "same": 7}
	b := map[string]float64{"ipc": 1.00, "mpki": 5.1, "old": 2, "zero": 0, "nan": 1, "same": 7}
	deltas, breaches := Compare(a, b, 0.05)
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	// Sorted by name.
	for i := 1; i < len(deltas); i++ {
		if deltas[i-1].Name >= deltas[i].Name {
			t.Fatalf("deltas not sorted: %s before %s", deltas[i-1].Name, deltas[i].Name)
		}
	}
	if d := byName["ipc"]; d.Kind != DiffBreach || math.Abs(d.Rel-0.10) > 1e-12 {
		t.Errorf("ipc: %+v", d)
	}
	if d := byName["mpki"]; d.Kind != DiffChanged {
		t.Errorf("mpki should be within threshold: %+v", d)
	}
	if d := byName["same"]; d.Kind != DiffSame {
		t.Errorf("same: %+v", d)
	}
	if d := byName["new"]; d.Kind != DiffOnlyA {
		t.Errorf("new: %+v", d)
	}
	if d := byName["old"]; d.Kind != DiffOnlyB {
		t.Errorf("old: %+v", d)
	}
	if d := byName["zero"]; d.Kind != DiffBreach || d.Rel != relSentinel {
		t.Errorf("zero baseline must breach with sentinel rel: %+v", d)
	}
	if d := byName["nan"]; d.Kind != DiffBreach || !math.IsNaN(d.Rel) {
		t.Errorf("NaN must always breach: %+v", d)
	}
	if breaches != 3 {
		t.Errorf("breaches = %d, want 3 (ipc, zero, nan)", breaches)
	}
}

func TestCompareOnlySidesAreNotBreaches(t *testing.T) {
	_, breaches := Compare(map[string]float64{"a": 1}, map[string]float64{"b": 1}, 0.05)
	if breaches != 0 {
		t.Fatalf("one-sided metrics must not breach, got %d", breaches)
	}
}
