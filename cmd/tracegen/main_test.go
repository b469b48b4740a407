package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/cpu"
	"stackedsim/internal/trace"
)

// tracegen runs the command in-process.
func tracegen(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"neither mode", nil, "need -bench and -o"},
		{"record without -o", []string{"-bench", "mcf"}, "need -bench and -o"},
		{"unknown benchmark", []string{"-bench", "nosuch", "-o", filepath.Join(t.TempDir(), "x")}, `unknown benchmark "nosuch"`},
		{"unknown flag", []string{"-cycles", "3"}, "flag provided but not defined"},
	} {
		code, stdout, stderr := tracegen(c.args...)
		if code != 2 || !strings.Contains(stderr, c.want) || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2 naming %q", c.name, code, stdout, stderr, c.want)
		}
	}
	if code, _, stderr := tracegen("-inspect", filepath.Join(t.TempDir(), "missing.trace")); code != 1 || !strings.Contains(stderr, "tracegen:") {
		t.Errorf("unreadable trace: exit %d, stderr %q; want 1", code, stderr)
	}
}

// TestRecordInspectRoundTrip: what -inspect counts is what was recorded.
func TestRecordInspectRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mcf.trace")
	code, stdout, stderr := tracegen("-bench", "mcf", "-n", "12345", "-o", path)
	if code != 0 || stdout != fmt.Sprintf("recorded 12345 μops of mcf to %s\n", path) {
		t.Fatalf("record: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	code, stdout, stderr = tracegen("-inspect", path)
	if code != 0 || !strings.HasPrefix(stdout, path+": 12345 μops\n") {
		t.Fatalf("inspect: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	for _, row := range []string{"memory:", "stores:", "dependent:", "mispredict:", "footprint:"} {
		if !strings.Contains(stdout, "  "+row) {
			t.Errorf("inspect output has no %q row:\n%s", row, stdout)
		}
	}
	if strings.Contains(stdout, "NaN") {
		t.Errorf("inspect printed a NaN:\n%s", stdout)
	}
}

// TestRecordedTraceReplaysTheGeneratorRun: a trace the command wrote,
// replayed the way `stacksim -traces` does, is the run the generator
// drives — same digest.
func TestRecordedTraceReplaysTheGeneratorRun(t *testing.T) {
	cfg := config.Fast3D()
	cfg.Cores = 1
	cfg.WarmupCycles, cfg.MeasureCycles = 5_000, 20_000
	path := filepath.Join(t.TempDir(), "libquantum.trace")
	// At most four μops dispatch a cycle: 200 k cover the 25 k-cycle
	// window and the trace never wraps.
	if code, _, stderr := tracegen("-bench", "libquantum", "-n", "200000", "-seed", fmt.Sprint(cfg.Seed), "-o", path); code != 0 {
		t.Fatalf("record: exit %d: %s", code, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := core.NewSystemFromSources(cfg, []cpu.UOpSource{r}, []string{"libquantum"})
	if err != nil {
		t.Fatal(err)
	}
	replay.Run()
	direct, err := core.NewSystem(cfg, []string{"libquantum"})
	if err != nil {
		t.Fatal(err)
	}
	direct.Run()
	if a, b := replay.Digest(), direct.Digest(); a != b {
		t.Fatalf("replayed digest %#x, generator-driven %#x", a, b)
	}
}

// TestInspectZeroOps: an inspection of no μops prints 0.0 %, not NaN % —
// the percentages of the whole divided by the μop count unguarded.
// Through the command a zero-μop trace never gets that far: the reader
// refuses it (a source that cannot supply a μop cannot drive a core).
func TestInspectZeroOps(t *testing.T) {
	var out bytes.Buffer
	inspectTrace(&out, "empty.trace", nil, 0)
	if got := out.String(); strings.Contains(got, "NaN") ||
		!strings.Contains(got, "memory:     0 (0.0%)") || !strings.Contains(got, "mispredict: 0 (0.00%)") {
		t.Errorf("zero summary printed:\n%s", got)
	}
	path := filepath.Join(t.TempDir(), "empty.trace")
	if code, _, stderr := tracegen("-bench", "mcf", "-n", "0", "-o", path); code != 0 {
		t.Fatalf("record of zero μops: exit %d: %s", code, stderr)
	}
	if code, stdout, stderr := tracegen("-inspect", path); code != 1 || stdout != "" || !strings.Contains(stderr, "empty trace") {
		t.Errorf("inspect of a zero-μop trace: exit %d, stdout %q, stderr %q; want 1 and \"empty trace\"", code, stdout, stderr)
	}
}
