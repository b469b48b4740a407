package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"stackedsim/internal/ledger"
)

// stacksim runs the command in-process and returns its exit code and
// streams.
func stacksim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun is stacksim for an invocation that has to succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errs := stacksim(t, args...)
	if code != 0 {
		t.Fatalf("stacksim %v exited %d:\n%s%s", args, code, out, errs)
	}
	return out
}

// TestUsageErrors pins the exit taxonomy's usage leg: every rejected
// flag combination exits 2 with its one-line message on stderr and
// nothing on stdout, before any simulation starts and before anything is
// written: each row also asks for a CPU profile in an empty directory
// ($T, where some rows put a ledger and telemetry too), and the
// directory must still be empty afterwards. The "config:" rows are
// config.Validate's own words about the assembled machine — stacksim
// restates none of its rules — and $S/sc.json is a fault scenario that
// loads.
func TestUsageErrors(t *testing.T) {
	const run = "-mix H1" // a valid workload, so only the flag under test is wrong
	tmp, scen := t.TempDir(), t.TempDir()
	if err := os.WriteFile(filepath.Join(scen, "sc.json"), []byte(`{"name":"s","faults":[{"kind":"bit-error","mc":-1,"prob":0.05}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ args, want string }{
		{run + " -cores 8", "config: 8 cores need the directory/mesh hierarchy (Coherence=mesi); the shared L2 tops out at 4"},
		{run + " -cores 0", "config: Cores = 0"},
		{run + " -coherence mesi -stack-mode cache", "config: coherence mode supports StackMode=memory only, have cache"},
		{run + " -coherence mesi -fault-scenario $S/sc.json", "config: fault injection is not supported under directory coherence"},
		{run + " -coherence mesi -dynamic", "config: DynamicMSHR resizes the shared L2's MSHRs; not applicable to private L2s"},
		{run + " -stack-mode cache -stack-fill-bytes 100 -ledger-dir $T/led", "config: StackFillBytes = 100, need a power of two in [LineBytes=64, PageBytes=4096]"},
		{run + " -mshr 0", "config: L2MSHRMult = 0"},
		{run + " -cores 3", "the workload has 4 programs, the machine 3 cores (see -cores)"},
		{"-cores 2 -traces a.trc,b.trc,c.trc", "the workload has 3 programs, the machine 2 cores (see -cores)"},
		{run + " -stack-cap-mb 8", "-stack-cap-mb does nothing in memory mode; add -stack-mode cache or memcache"},
		{run + " -stack-ways 4", "-stack-ways does nothing in memory mode; add -stack-mode cache or memcache"},
		{run + " -stack-tag-lat 3", "-stack-tag-lat does nothing in memory mode; add -stack-mode cache or memcache"},
		{run + " -stack-fill-bytes 256", "-stack-fill-bytes does nothing in memory mode; add -stack-mode cache or memcache"},
		{run + " -stack-hot-frac 0.3", "-stack-hot-frac does nothing in memory mode; add -stack-mode cache or memcache"},
		{run + " -stack-mode cache -stack-hot-frac 0.3", "-stack-hot-frac only applies to -stack-mode memcache"},
		{run + " -sample-every 10", "-sample-every does nothing without -telemetry-dir; add -telemetry-dir <dir>"},
		{run + " -trace-events", "-trace-events does nothing without -telemetry-dir; add -telemetry-dir <dir>"},
		{run + " -trace-sample 8", "-trace-sample does nothing without -telemetry-dir; add -telemetry-dir <dir>"},
		{run + " -attrib=false", "-attrib does nothing without -telemetry-dir; add -telemetry-dir <dir>"},
		{run + " -power=false", "-power does nothing without -telemetry-dir; add -telemetry-dir <dir>"},
		{run + " -telemetry-dir $T/tel -trace-events -attrib=false", "-trace-events draws the trace from the attribution tags; it conflicts with -attrib=false"},
		{run + " -fault-seed 3", "-fault-seed does nothing without -fault-scenario"},
		{run + " -telemetry-dir d -sample-every -1", "-sample-every must be >= 0 cycles (0 disables the time-series)"},
		{run + " -ledger-dir d -traces a.trc", "-ledger-dir conflicts with -traces (trace contents are outside the run's content address)"},
		{"-mix H1,H2 -telemetry-dir d -monitor-addr 127.0.0.1:0", "-monitor-addr serves a single run; it conflicts with a multi-mix sweep (a sweep reports its runs on stdout)"},
		{run + " -monitor-addr 127.0.0.1:0", "-monitor-addr needs the telemetry registry; add -telemetry-dir <dir>"},
		{run + " -j -1", "-j must be >= 0 (0 = GOMAXPROCS)"},
		{"-mix H1,H2 -j -1", "-j must be >= 0 (0 = GOMAXPROCS)"},

		{run + " -config nope", `unknown config "nope"`},
		{run + " -stack-mode bogus", `config: unknown stack mode "bogus" (want memory, cache or memcache)`},
		{run + " -coherence bogus", `config: unknown coherence mode "bogus" (want shared or mesi)`},
		{run + " -coherence mesi -cores 7", "config: the mesh needs a square core count, have 7 (not a perfect square)"},
		{"-mix H1,H2 -telemetry-dir d", "-telemetry-dir and -traces describe a single run; use one -mix"},
		{run + " -j 2", "-j only applies to a multi-mix sweep (comma-separated -mix)"},
		{"-config 3D", "need -mix or -bench (see -list)"},
		{"-mix h1", `unknown mix "h1"`},
		{"-mix h1,VH1", `unknown mix "h1"`},

		{"-mix H1,H2 -telemetry-dir $T/t -ledger-dir $T/newdir", "-telemetry-dir and -traces describe a single run; use one -mix"},
		{run + " -j 3 -ledger-dir $T/newdir", "-j only applies to a multi-mix sweep (comma-separated -mix)"},
		{run + " -config nope -ledger-dir $T/newdir", `unknown config "nope"`},
		{"-mix h1 -ledger-dir $T/newdir", `unknown mix "h1"`},
		{"-mix H1,h2 -ledger-dir $T/newdir", `unknown mix "h2"`},
		{"-config 3D -ledger-dir $T/newdir", "need -mix or -bench (see -list)"},
	} {
		args := append(strings.Fields(strings.NewReplacer("$T", tmp, "$S", scen).Replace(c.args)), "-cpuprofile", filepath.Join(tmp, "p"))
		code, out, errs := stacksim(t, args...)
		if code != 2 || errs != "stacksim: "+c.want+"\n" || out != "" {
			t.Errorf("stacksim %s:\n exit %d stderr %q stdout %q\n want exit 2 stderr %q", c.args, code, errs, out, "stacksim: "+c.want+"\n")
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Fatalf("stacksim %s: a usage error, yet it left %v behind", c.args, left)
		}
	}
	// -stack-tags-sram is not a flag: the stack cache has one tag directory.
	// -resume is not one either: a cut-off run is finished by rerunning it.
	for _, flag := range []string{"-no-such-flag", "-stack-tags-sram=false", "-resume x.ckpt"} {
		if code, _, errs := stacksim(t, strings.Fields(flag)...); code != 2 || !strings.Contains(errs, "flag provided but not defined") {
			t.Errorf("unknown flag %s: exit %d stderr %q", flag, code, errs)
		}
	}
}

// TestRuntimeFailuresExitOne pins the other leg: a well-formed command
// line whose inputs are unusable fails with exit 1.
func TestRuntimeFailuresExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-mix", "H1", "-fault-scenario", "missing.json"},
		{"-mix", "H1", "-traces", "missing.trc"},
		{"-config", "3D", "-bench", "nosuchbench"},
	} {
		if code, _, errs := stacksim(t, args...); code != 1 || !strings.HasPrefix(errs, "stacksim: ") {
			t.Errorf("stacksim %v: exit %d stderr %q, want exit 1", args, code, errs)
		}
	}
}

var (
	ledgerLine = regexp.MustCompile(`(?m)^ledger: .*\n`)
	engineLine = regexp.MustCompile(`(?m)^(engine: |  request pool: ).*\n`)
	recordedID = regexp.MustCompile(`ledger: recorded ([0-9a-f]{16}) in `)
	cacheHitID = regexp.MustCompile(`ledger: cache hit ([0-9a-f]{16}) \(recorded .*\); not re-simulating\n`)
)

// TestLedgerColdThenWarm is the dedupe gate: the first run of a
// (config, mix, seed) records it, the identical re-run is served from
// the ledger — it prints the cache hit, reports the same metrics, and
// has no engine block because nothing was simulated.
func TestLedgerColdThenWarm(t *testing.T) {
	store := t.TempDir()
	args := []string{"-config", "quadMC", "-mix", "VH1", "-warmup", "2000", "-measure", "20000", "-ledger-dir", store}
	cold := mustRun(t, args...)
	rec := recordedID.FindStringSubmatch(cold)
	if rec == nil || !engineLine.MatchString(cold) {
		t.Fatalf("cold run did not simulate and record:\n%s", cold)
	}
	warm := mustRun(t, args...)
	hit := cacheHitID.FindStringSubmatch(warm)
	if hit == nil || hit[1] != rec[1] {
		t.Fatalf("warm run was not a cache hit on %s:\n%s", rec[1], warm)
	}
	if engineLine.MatchString(warm) {
		t.Errorf("warm run simulated (engine block present):\n%s", warm)
	}
	strip := func(s string) string { return engineLine.ReplaceAllString(ledgerLine.ReplaceAllString(s, ""), "") }
	if strip(warm) != strip(cold) {
		t.Errorf("recalled report differs from the live one:\n%s\nvs\n%s", strip(warm), strip(cold))
	}
}

// TestCoherenceSharedIsTheSeedRun is the seed-identity gate: spelling
// out the default `-coherence shared` builds a bit-identical config, so
// the run collapses onto the plain run's RunID and is a cache hit.
func TestCoherenceSharedIsTheSeedRun(t *testing.T) {
	store := t.TempDir()
	args := []string{"-config", "quadMC", "-mix", "VH1", "-warmup", "2000", "-measure", "20000", "-ledger-dir", store}
	rec := recordedID.FindStringSubmatch(mustRun(t, args...))
	if rec == nil {
		t.Fatal("plain run was not recorded")
	}
	warm := mustRun(t, append(args, "-coherence", "shared")...)
	if hit := cacheHitID.FindStringSubmatch(warm); hit == nil || hit[1] != rec[1] {
		t.Fatalf("-coherence shared did not collapse onto run %s:\n%s", rec[1], warm)
	}
}

// TestSweepAndSingleRunShareLedgerKeys pins that a sweep spells its
// ledger keys exactly as a single run does, whatever the spacing of the
// -mix list: each direction serves the other's records.
func TestSweepAndSingleRunShareLedgerKeys(t *testing.T) {
	store := t.TempDir()
	window := []string{"-config", "3D", "-warmup", "2000", "-measure", "10000", "-ledger-dir", store}
	with := func(extra ...string) []string { return append(append([]string(nil), window...), extra...) }

	sweep := mustRun(t, with("-mix", " H1 , VH1", "-j", "2")...)
	if !strings.Contains(sweep, "\n  H1   HMIPC=") || !strings.Contains(sweep, "\n  VH1  HMIPC=") ||
		!strings.Contains(sweep, "ledger: 0 of 2 runs served from "+store) {
		t.Fatalf("cold sweep:\n%s", sweep)
	}
	if single := mustRun(t, with("-mix", "VH1")...); !cacheHitID.MatchString(single) {
		t.Errorf("single run after the sweep was not a cache hit:\n%s", single)
	}
	if rec := mustRun(t, with("-mix", "M1")...); !recordedID.MatchString(rec) {
		t.Fatalf("single M1 run was not recorded:\n%s", rec)
	}
	if again := mustRun(t, with("-mix", "M1,H1,VH1")...); !strings.Contains(again, "ledger: 3 of 3 runs served from "+store) {
		t.Errorf("warm sweep re-simulated:\n%s", again)
	}
}

// TestLedgerRecordIsOneShape pins that a recorded run does not depend on
// the path that recorded it: a run with telemetry attached, a plain run
// and a sweep each record VH1 under one ID with byte-identical summaries,
// so every ledger reader derives the same metric names and values from
// all three.
func TestLedgerRecordIsOneShape(t *testing.T) {
	window := []string{"-config", "3D", "-warmup", "2000", "-measure", "10000"}
	var recs []*ledger.Record
	for _, extra := range [][]string{
		{"-mix", "VH1", "-telemetry-dir", t.TempDir()},
		{"-mix", "VH1"},
		{"-mix", "H1,VH1"},
	} {
		store := t.TempDir()
		mustRun(t, append(append([]string{"-ledger-dir", store}, window...), extra...)...)
		l, err := ledger.Open(store)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := l.Manifests()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if reflect.DeepEqual(m.Workload, []string{"mix:VH1"}) {
				rec, err := l.Get(m.ID)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
			}
		}
	}
	if len(recs) != 3 {
		t.Fatalf("found %d VH1 records in three stores, want 3", len(recs))
	}
	want := recs[1]
	if _, ok := want.Metrics()["hmipc"]; !ok {
		t.Fatalf("derived metrics lack hmipc: %v", want.Metrics())
	}
	for i, rec := range recs {
		if rec.Manifest.ID != want.Manifest.ID || string(rec.Summary) != string(want.Summary) ||
			!reflect.DeepEqual(rec.Metrics(), want.Metrics()) {
			t.Errorf("record %d (%s) differs from the plain run's (%s):\n%s\nvs\n%s",
				i, rec.Manifest.ID, want.Manifest.ID, rec.Summary, want.Summary)
		}
	}
}

// TestInterruptedRunStillFlushes pins what "a cut-off run still reports
// and exports" needs from the exit path: a run cut off by -deadline
// exits 1 after printing its partial metrics, and the deferred profile
// flush has run, so the CPU profile is not empty.
func TestInterruptedRunStillFlushes(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	code, out, errs := stacksim(t, "-config", "3D", "-mix", "H1", "-measure", "2000000000",
		"-deadline", "1ms", "-cpuprofile", prof)
	if code != 1 || !strings.Contains(errs, "stacksim: interrupted at cycle ") || !strings.Contains(errs, "metrics below are partial") {
		t.Fatalf("exit %d stderr %q, want an interrupted run", code, errs)
	}
	if !strings.Contains(out, "HMIPC: ") || !strings.Contains(out, "bus utilization: ") {
		t.Errorf("interrupted run printed no partial report:\n%s", out)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("CPU profile after an interrupted run: %v, %v; want a non-empty file", st, err)
	}
}

// TestMemProfileOnEveryExit pins that -memprofile is written wherever
// run returns from: a sweep and a single run served from the ledger both
// return before the end of run, where the profile used to be written.
func TestMemProfileOnEveryExit(t *testing.T) {
	store := t.TempDir()
	for _, mix := range []string{"H1,H2", "H1"} {
		prof := filepath.Join(t.TempDir(), "mem.prof")
		out := mustRun(t, "-config", "3D", "-warmup", "1000", "-measure", "4000", "-ledger-dir", store,
			"-mix", mix, "-memprofile", prof)
		if mix == "H1" && !cacheHitID.MatchString(out) {
			t.Fatalf("single run after the sweep was not a cache hit:\n%s", out)
		}
		if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
			t.Errorf("-mix %s: heap profile: %v, %v; want a non-empty file", mix, st, err)
		}
	}
}

// TestListAndHelp covers the two invocations that do no run.
func TestListAndHelp(t *testing.T) {
	if out := mustRun(t, "-list"); !strings.Contains(out, "benchmarks (Table 2a):") || !strings.Contains(out, "  VH1  (VH): [") {
		t.Errorf("-list output:\n%s", out)
	}
	if code, _, errs := stacksim(t, "-h"); code != 0 || !strings.Contains(errs, "Usage of stacksim:") {
		t.Errorf("-h: exit %d stderr %q", code, errs)
	}
}
