package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/ledger"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCSVFinalSample(t *testing.T) {
	path := writeTemp(t, "ts.csv", "cycle,mc0.reads,mc0.writes\n1000,5,1\n2000,12,3\n")
	vals, err := loadExport(path)
	if err != nil {
		t.Fatal(err)
	}
	if vals["mc0.reads"] != 12 || vals["mc0.writes"] != 3 {
		t.Fatalf("final sample = %v, want reads=12 writes=3", vals)
	}
}

// TestLoadErrorsAreClear pins the messages for unusable exports: every
// failure names the file and says what is wrong with it, instead of a
// panic or a silent zero-metric compare.
func TestLoadErrorsAreClear(t *testing.T) {
	cases := []struct {
		name, file, content, want string
	}{
		{"empty csv", "e.csv", "", "empty export"},
		{"wrong header", "h.csv", "time,x\n1,2\n", `want "cycle"`},
		{"header only", "o.csv", "cycle,x\n", "no samples"},
		{"truncated row", "t.csv", "cycle,x,y\n1000,5\n", "truncated write?"},
		{"bad cell", "b.csv", "cycle,x\n1000,wat\n", "metric x"},
		{"jsonl", "ts.jsonl", `{"cycle":1000,"metrics":{"x":1}}` + "\n", "pass the timeseries.csv"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := writeTemp(t, c.file, c.content)
			_, err := loadExport(path)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if !strings.Contains(err.Error(), c.file) {
				t.Fatalf("error %q does not name the file", err)
			}
		})
	}
	if _, err := loadExport(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing export loaded")
	}
}

func TestDiffThresholdGate(t *testing.T) {
	oldVals := map[string]float64{"a": 100, "b": 100, "c": 100, "gone": 1}
	newVals := map[string]float64{"a": 100, "b": 103, "c": 120, "fresh": 1}
	rows, breaches := diff(oldVals, newVals, 0.05)
	if breaches != 1 {
		t.Fatalf("breaches = %d, want 1 (only c moved >5%%)", breaches)
	}
	kinds := map[string]diffKind{}
	for _, r := range rows {
		kinds[r.name] = r.kind
	}
	want := map[string]diffKind{
		"a": diffSame, "b": diffChanged, "c": diffBreach,
		"gone": diffOnlyOld, "fresh": diffOnlyNew,
	}
	for name, k := range want {
		if kinds[name] != k {
			t.Fatalf("%s classified %d, want %d (rows %+v)", name, kinds[name], k, rows)
		}
	}
}

// TestOnlyIgnoreGlobs pins the -only/-ignore filters: -only keeps its
// matches, -ignore then drops, both over comma-separated path.Match
// globs, and a malformed pattern is an error instead of a silent
// match-nothing.
func TestOnlyIgnoreGlobs(t *testing.T) {
	vals := map[string]float64{
		"power.total.w":         91,
		"power.layer.cpu.w":     79.5,
		"thermal.max_dram.c":    70,
		"mc0.reads":             12,
		"power.energy.total_uj": 1234,
	}
	keep, err := globFilter("power.*", "")
	if err != nil {
		t.Fatal(err)
	}
	got := filterVals(vals, keep)
	if len(got) != 3 || got["power.total.w"] != 91 || got["power.layer.cpu.w"] != 79.5 {
		t.Fatalf("-only 'power.*' kept %v", got)
	}

	keep, err = globFilter("", "power.*,thermal.*")
	if err != nil {
		t.Fatal(err)
	}
	got = filterVals(vals, keep)
	if len(got) != 1 || got["mc0.reads"] != 12 {
		t.Fatalf("-ignore 'power.*,thermal.*' kept %v", got)
	}

	// -only then -ignore compose: the energy family minus the total.
	keep, err = globFilter("power.energy.*, power.total.w", "power.total.*")
	if err != nil {
		t.Fatal(err)
	}
	got = filterVals(vals, keep)
	if len(got) != 1 || got["power.energy.total_uj"] != 1234 {
		t.Fatalf("composed filters kept %v", got)
	}

	// Empty specs keep everything.
	keep, err = globFilter("", "")
	if err != nil {
		t.Fatal(err)
	}
	if got = filterVals(vals, keep); len(got) != len(vals) {
		t.Fatalf("empty filters dropped metrics: %v", got)
	}

	if _, err := globFilter("power.[", ""); err == nil {
		t.Fatal("malformed -only glob accepted")
	}
	if _, err := globFilter("", "x["); err == nil {
		t.Fatal("malformed -ignore glob accepted")
	}
}

// run invokes the command in-process and returns its exit code plus
// combined output.
func run(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out strings.Builder
	code := realMain(args, &out, &out)
	return code, out.String()
}

// TestExitCodeTaxonomyFileMode pins the documented exit statuses in
// file mode: 0 clean, 1 regression, 2 usage/IO error.
func TestExitCodeTaxonomyFileMode(t *testing.T) {
	base := writeTemp(t, "base.csv", "cycle,ipc\n1000,1.0\n")
	same := writeTemp(t, "same.csv", "cycle,ipc\n1000,1.0\n")
	worse := writeTemp(t, "worse.csv", "cycle,ipc\n1000,0.8\n")
	if code, out := run(t, "-threshold", "0.05", base, same); code != 0 {
		t.Fatalf("clean compare exit %d, want 0\n%s", code, out)
	}
	if code, out := run(t, "-threshold", "0.05", base, worse); code != 1 {
		t.Fatalf("regression exit %d, want 1\n%s", code, out)
	}
	if code, _ := run(t, "-threshold", "0.05", base); code != 2 {
		t.Fatal("one positional arg accepted")
	}
	if code, _ := run(t, base, filepath.Join(t.TempDir(), "missing.csv")); code != 2 {
		t.Fatal("unreadable export did not exit 2")
	}
	if code, _ := run(t, "-a", "latest", base, same); code != 2 {
		t.Fatal("-a without -ledger-dir accepted")
	}
}

// ledgerFixture records a baseline and a 12%-slower candidate, with the
// baseline pinned as "blessed".
func ledgerFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type cfg struct {
		Name string
		Seed int64
	}
	mk := func(seed int64, hmipc float64) string {
		id, digest, err := ledger.RunID(cfg{"quadMC", seed}, []string{"mix:VH1"}, "test-v1")
		if err != nil {
			t.Fatal(err)
		}
		rec := &ledger.Record{
			Manifest: ledger.Manifest{ID: id, ConfigDigest: digest, Config: "quadMC",
				Workload: []string{"mix:VH1"}, Seed: seed, SimVersion: "test-v1"},
			Summary: []byte(fmt.Sprintf(`{"HMIPC":%g,"Energy":{"ReadUJ":91.5}}`, hmipc)),
		}
		if _, err := l.Put(rec); err != nil {
			t.Fatal(err)
		}
		return id
	}
	baseID := mk(1, 1.25)
	mk(2, 1.10) // latest: 12% below the baseline
	if err := l.Tag("blessed", baseID); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLedgerMode pins the ledger-native gate: refs resolve (tags,
// "latest"), the baseline sits on the -b side, breaches fail with exit
// 1, unknown refs and usage errors exit 2, and -pin blesses a new
// baseline only after a clean compare.
func TestLedgerMode(t *testing.T) {
	dir := ledgerFixture(t)

	code, out := run(t, "-ledger-dir", dir, "-a", "latest", "-b", "blessed", "-threshold", "0.05")
	if code != 1 {
		t.Fatalf("regressed candidate exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "hmipc") || !strings.Contains(out, "1 breaches") {
		t.Fatalf("breach report missing:\n%s", out)
	}

	// The candidate may not be blessed while it breaches.
	code, out = run(t, "-ledger-dir", dir, "-a", "latest", "-b", "blessed",
		"-threshold", "0.05", "-pin", "blessed")
	if code != 1 || !strings.Contains(out, "not pinning") {
		t.Fatalf("breaching pin: exit %d\n%s", code, out)
	}

	// Comparing the baseline against itself is clean, so -pin retags.
	code, out = run(t, "-ledger-dir", dir, "-a", "blessed", "-b", "blessed",
		"-threshold", "0.05", "-pin", "known-good")
	if code != 0 || !strings.Contains(out, `pinned`) {
		t.Fatalf("clean pin: exit %d\n%s", code, out)
	}
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tags, err := l.Tags()
	if err != nil {
		t.Fatal(err)
	}
	if tags["known-good"] == "" || tags["known-good"] != tags["blessed"] {
		t.Fatalf("pin did not land: tags %v", tags)
	}

	for _, args := range [][]string{
		{"-ledger-dir", dir, "-a", "latest"},                                             // missing -b
		{"-ledger-dir", dir, "-a", "latest", "-b", "no-such-run"},                        // unknown ref
		{"-ledger-dir", dir, "-a", "latest", "-b", "blessed", "x.csv"},                   // positional + ledger
		{"-ledger-dir", filepath.Join(dir, "nope", "deeper"), "-a", "latest", "-b", "x"}, // unopenable
	} {
		if code, out := run(t, args...); code != 2 {
			t.Fatalf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}

	// Glob filters apply to ledger metrics too: with hmipc ignored the
	// compare is clean.
	code, out = run(t, "-ledger-dir", dir, "-a", "latest", "-b", "blessed",
		"-threshold", "0.05", "-ignore", "hm*")
	if code != 0 {
		t.Fatalf("-ignore in ledger mode: exit %d\n%s", code, out)
	}
}

// TestThresholdOutOfRange: a threshold no change can exceed (NaN, Inf)
// or one that reads as report-only (negative) would pass a 12% hmipc
// drop and let -pin bless it, so each is a usage error in both modes and
// the baseline tag stays where it was.
func TestThresholdOutOfRange(t *testing.T) {
	base := writeTemp(t, "base.csv", "cycle,ipc\n1000,1.0\n")
	worse := writeTemp(t, "worse.csv", "cycle,ipc\n1000,0.8\n")
	dir := ledgerFixture(t)
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := l.Tags()
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []string{"NaN", "Inf", "-Inf", "-1"} {
		if code, out := run(t, "-threshold", th, base, worse); code != 2 {
			t.Errorf("file mode, -threshold %s: exit %d, want 2\n%s", th, code, out)
		}
		code, out := run(t, "-ledger-dir", dir, "-a", "latest", "-b", "blessed", "-threshold", th, "-pin", "blessed")
		if code != 2 {
			t.Errorf("ledger mode, -threshold %s -pin: exit %d, want 2\n%s", th, code, out)
		}
	}
	if after, err := l.Tags(); err != nil || after["blessed"] != before["blessed"] {
		t.Fatalf("blessed moved from %s to %s (%v)", before["blessed"], after["blessed"], err)
	}
}

// TestDiffNaNAlwaysBreaches pins the gate's NaN rule: NaN never
// compares, so without special-casing a corrupt export would pass any
// threshold — including report-only mode.
func TestDiffNaNAlwaysBreaches(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		name     string
		ov, nv   float64
		thresh   float64
		breaches int
	}{
		{"new is NaN", 5, nan, 0.05, 1},
		{"old is NaN", nan, 5, 0.05, 1},
		{"both NaN", nan, nan, 0.05, 1},
		{"NaN in report-only mode", 5, nan, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			rows, breaches := diff(map[string]float64{"m": c.ov}, map[string]float64{"m": c.nv}, c.thresh)
			if breaches != c.breaches {
				t.Fatalf("breaches = %d, want %d", breaches, c.breaches)
			}
			if len(rows) != 1 || rows[0].kind != diffBreach || !strings.Contains(rows[0].line, "NaN") {
				t.Fatalf("row %+v is not a flagged NaN breach", rows)
			}
		})
	}
	// Metrics present on only one side stay non-breaching even as NaN:
	// added/removed instrumentation never fails the gate.
	if _, breaches := diff(map[string]float64{}, map[string]float64{"m": math.NaN()}, 0.05); breaches != 0 {
		t.Fatalf("one-sided NaN breached (%d), want added metrics exempt", breaches)
	}
}
