package main

import (
	"bytes"
	"crypto/md5"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/core"
)

// experiments runs the command in-process and returns its exit code and
// streams.
func experiments(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrors pins the usage leg of the exit taxonomy: each
// rejected command line exits 2 with its one-line message on stderr and
// nothing on stdout, before any simulation starts. A misspelt
// experiment used to drop out of the sweep silently (exit 0).
func TestUsageErrors(t *testing.T) {
	names := "all,table1"
	for _, f := range core.Figures {
		names += "," + f.Name
	}
	names += ",tsv"
	valid := " (valid: " + names + ")"
	for _, c := range []struct{ args, want string }{
		{"-j -1", "-j must be >= 0 (0 = GOMAXPROCS)"},
		{"-run-timeout -1s", "-run-timeout must be >= 0 (0 = no limit)"},
		{"-exp fig4,bogus", `unknown experiment "bogus"` + valid},
		{"-exp ,", "-exp selects no experiment" + valid},
	} {
		code, out, errs := experiments(strings.Fields(c.args)...)
		if code != 2 || errs != "experiments: "+c.want+"\n" || out != "" {
			t.Errorf("experiments %s:\n exit %d stderr %q stdout %q\n want exit 2 stderr %q", c.args, code, errs, out, "experiments: "+c.want+"\n")
		}
	}
	// -farm is not a flag: a sweep runs on one host, in -j workers; nor
	// is -monitor-addr: the monitor watches one stacksim run.
	for _, flag := range []string{"-no-such-flag", "-farm x", "-monitor-addr :0"} {
		if code, _, errs := experiments(strings.Fields(flag)...); code != 2 || !strings.Contains(errs, "flag provided but not defined") {
			t.Errorf("unknown flag %s: exit %d stderr %q", flag, code, errs)
		}
	}
	// The help text names every experiment the registry holds.
	code, _, errs := experiments("-h")
	if code != 0 || !strings.Contains(errs, names) {
		t.Errorf("-h: exit %d, help text does not list the registry:\n%s", code, errs)
	}
}

// TestFailedHeapProfileFailsTheRun: the heap profile is written by a
// deferred call, which used to print its open error and leave exit 0.
func TestFailedHeapProfileFailsTheRun(t *testing.T) {
	code, out, errs := experiments("-exp", "table1", "-memprofile", filepath.Join(t.TempDir(), "no-such-dir", "mem.prof"))
	if code != 1 || !strings.Contains(errs, "no-such-dir") || !strings.Contains(out, "Table 1:") {
		t.Errorf("exit %d stderr %q, want the table, the open error and exit 1", code, errs)
	}
}

// TestManycoreIsOptIn checks -exp all leaves the 256-core sweep out and
// naming it brings it in. A 1 ns run timeout fails every run before it
// simulates, so each selected figure reports one error line.
func TestManycoreIsOptIn(t *testing.T) {
	for _, c := range []struct {
		exp      string
		manycore bool
	}{{"all", false}, {"all,manycore", true}, {"manycore", true}} {
		code, _, errs := experiments("-exp", c.exp, "-run-timeout", "1ns")
		if code != 1 {
			t.Errorf("-exp %s: exit %d, want 1", c.exp, code)
		}
		if got := strings.Contains(errs, "experiments: manycore: "); got != c.manycore {
			t.Errorf("-exp %s: manycore generated = %v, want %v", c.exp, got, c.manycore)
		}
	}
}

// TestFigure4CSV pins the command's output end to end against the md5
// captured from the binary as it stood before figures were declared as
// cells.
func TestFigure4CSV(t *testing.T) {
	code, out, errs := experiments("-exp", "fig4", "-csv", "-warmup", "5000", "-measure", "15000")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if got := fmt.Sprintf("%x", md5.Sum([]byte(out))); got != "d17f340bade016a1d090062072134234" {
		t.Errorf("fig4 CSV md5 %s:\n%s", got, out)
	}
}

// TestTSVBlock pins -exp tsv, the printer of the arithmetic the paper
// states only as text: the Section 2.2/2.4/4.1 lines as they have always
// read, then the Section 2.4 thermal check — the stack-height sweep and
// the paper's stack, whose 73.8 C EXPERIMENTS.md quotes.
func TestTSVBlock(t *testing.T) {
	code, out, errs := experiments("-exp", "tsv")
	if code != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	const area = `TSV arithmetic (Section 2.2):
  1024-bit bus at 10um pitch: 0.32 mm^2
  1Kb buses per cm^2: 312 (paper: over three hundred)
DRAM density (Section 2.4):
  80nm: 10.9 Mb/mm^2; 50nm: 27.9 Mb/mm^2 (paper: 27.9)
  1GB layer footprint at 50nm: 294 mm^2 (paper: 294)
  8GB stack: 8 layers (+logic: 9)
Row-buffer budget (Section 4.1):
  8 ranks x 8 banks x 4KB x 1 entry: 256 KB (paper: 256KB)
  16 ranks: 512 KB total

`
	if !strings.HasPrefix(out, area) {
		t.Fatalf("the area arithmetic moved:\n%s", out)
	}
	for _, want := range []string{
		"layers    60W CPU  80W CPU  100W CPU  130W CPU",
		"8+logic   68.8C    73.8C    78.8C     86.3C !",
		"worst-case DRAM: 73.8C (limit 85C, ok=true)",
	} {
		if !strings.Contains(out[len(area):], want) {
			t.Fatalf("thermal check missing %q:\n%s", want, out)
		}
	}
}
