// Command stacksim runs one simulation: a memory organization preset
// (optionally tweaked) against a Table 2b mix or an ad-hoc list of
// benchmarks, and prints the collected metrics.
//
// Usage:
//
//	stacksim -config 3D-fast -mix VH1
//	stacksim -config 3D-fast -mix H1,H2,VH1 -j 4
//	stacksim -config quadmc -bench S.copy,mcf -measure 1000000
//	stacksim -config 3D-fast -stack-mode cache -stack-cap-mb 64 -mix H1
//	stacksim -config quadmc -mix VH1 -telemetry-dir out/ -sample-every 1000 -trace-events
//	stacksim -list
//
// A comma-separated -mix runs a sweep: the mixes fan out over a worker
// pool (-j, default GOMAXPROCS) and report in the order given, one
// summary line per mix. Sweeps exclude -telemetry-dir and -traces,
// which describe a single run.
//
// With -telemetry-dir the run writes manifest.json, timeseries.csv,
// distributions.json, attrib.json, powerthermal.json and (with
// -trace-events, which draws the trace from the attribution tags and so
// needs -attrib) trace.json into the directory, and prints
// the memory-latency attribution table (disable with -attrib=false)
// plus the power/thermal report with the per-bank activity heatmap and
// per-layer temperature trajectory (disable with -power=false).
// -monitor-addr serves the live run on /metrics, /snapshot, /healthz,
// /dashboard and pprof; see docs/OBSERVABILITY.md.
//
// With -ledger-dir every completed run is appended to a
// content-addressed run ledger keyed by (config, workload, seed,
// simulator version). Re-running a recorded combination is served from
// the ledger without simulating — unless -telemetry-dir is also set,
// since the telemetry artifacts only exist for a live run (the run is
// then re-simulated and its record deduplicated). Sweeps record and
// dedupe per mix. Inspect and gate recorded runs with cmd/statsdiff
// -ledger-dir.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"stackedsim/internal/attrib"
	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/cpu"
	"stackedsim/internal/fault"
	"stackedsim/internal/ledger"
	"stackedsim/internal/monitor"
	"stackedsim/internal/powerthermal"
	"stackedsim/internal/telemetry"
	"stackedsim/internal/trace"
	"stackedsim/internal/workload"
)

func preset(name string) (*config.Config, bool) {
	switch strings.ToLower(name) {
	case "2d":
		return config.Baseline2D(), true
	case "3d":
		return config.Simple3D(), true
	case "3d-wide", "wide":
		return config.Wide3D(), true
	case "3d-fast", "fast":
		return config.Fast3D(), true
	case "dualmc":
		return config.DualMC(), true
	case "quadmc":
		return config.QuadMC(), true
	}
	return nil, false
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body behind an exit code with injectable streams: 0 on
// success, 1 on a failed or interrupted run, 2 on a usage error. Nothing
// below main calls os.Exit, so the deferred cleanups (profile flush,
// graceful monitor shutdown) run on every path and the command is
// testable in-process.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("stacksim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfgName = fs.String("config", "3D-fast", "preset: 2D, 3D, 3D-wide, 3D-fast, dualMC, quadMC")
		mixName = fs.String("mix", "", "Table 2b mix to run (H1..M3)")
		benches = fs.String("bench", "", "comma-separated benchmarks (alternative to -mix)")
		warmup  = fs.Int64("warmup", 200_000, "warmup cycles")
		measure = fs.Int64("measure", 600_000, "measured cycles")
		mshrX   = fs.Int("mshr", 1, "L2 MSHR capacity multiplier (1,2,4,8)")
		vbf     = fs.Bool("vbf", false, "use the VBF-based L2 MSHR")
		dynamic = fs.Bool("dynamic", false, "enable dynamic MSHR resizing")
		seed    = fs.Int64("seed", 1, "workload seed")
		cwf     = fs.Bool("cwf", false, "critical-word-first read delivery")
		smart   = fs.Bool("smartrefresh", false, "skip refreshes for access-restored rows")
		unified = fs.Bool("unified-mshr", false, "one shared L2 MSHR file instead of per-MC banks")

		stackMode   = fs.String("stack-mode", "memory", "stacked-DRAM use: memory (all of main memory), cache, or memcache (hot region + cache)")
		stackCapMB  = fs.Int("stack-cap-mb", 64, "stack capacity in MB (cache/memcache modes)")
		stackWays   = fs.Int("stack-ways", 16, "stack cache associativity")
		stackTagLat = fs.Int("stack-tag-lat", 2, "SRAM tag-probe latency in CPU cycles")
		stackFill   = fs.Int("stack-fill-bytes", 0, "fill/allocation granularity in bytes (0 = one page)")
		stackHot    = fs.Float64("stack-hot-frac", 0.5, "memcache: fraction of the stack that is direct-addressed hot memory")
		cohMode     = fs.String("coherence", "", "coherence mode: shared (seed default) or mesi (private per-core L2s under a directory protocol, on a 2D mesh)")
		cores       = fs.Int("cores", 0, "override the preset's core count (counts > 4 need -coherence mesi)")

		traces = fs.String("traces", "", "comma-separated trace files (from tracegen), one per core")
		list   = fs.Bool("list", false, "list benchmarks and mixes, then exit")
		jobs   = fs.Int("j", 0, "concurrent simulations for a multi-mix sweep (0 = GOMAXPROCS)")

		faultScenario = fs.String("fault-scenario", "", "JSON fault scenario to inject into the memory hierarchy (see docs/ROBUSTNESS.md)")
		faultSeed     = fs.Int64("fault-seed", 0, "override the scenario's fault-stream seed (0 keeps the scenario/run default)")
		deadline      = fs.Duration("deadline", 0, "wall-clock limit for the run (0 = none); a cut-off run still reports and exports")

		telemetryDir = fs.String("telemetry-dir", "", "directory for telemetry exports (enables telemetry)")
		sampleEvery  = fs.Int64("sample-every", 1000, "time-series sample interval in cycles")
		traceEvents  = fs.Bool("trace-events", false, "emit Chrome trace_event JSON for sampled demand-miss lifecycles, drawn from the attribution tags (needs -attrib)")
		traceSample  = fs.Int("trace-sample", 64, "trace 1 in N demand-miss lifecycles")
		attribOn     = fs.Bool("attrib", true, "memory-latency attribution (cycle accounting) when telemetry is enabled")
		powerOn      = fs.Bool("power", true, "power/thermal tracking (per-layer power, transient temperatures) when telemetry is enabled")
		monitorAddr  = fs.String("monitor-addr", "", "serve the run live on /metrics, /snapshot, /dashboard, /healthz and pprof at this address")
		ledgerDir    = fs.String("ledger-dir", "", "content-addressed run ledger: record completed runs here and serve known (config, workload, seed) runs from it without re-simulating")

		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintf(stderr, "stacksim: %v\n", err)
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "stacksim: %v\n", err)
		return 1
	}
	// Every explicitly set flag: validation tells a no-op flag from a
	// default, and the telemetry manifest records them.
	explicit := map[string]string{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = f.Value.String() })
	sweep := strings.Contains(*mixName, ",")
	if err := validateFlags(explicit, *telemetryDir, *sampleEvery, *monitorAddr, sweep,
		*traces, *stackMode, *ledgerDir, *jobs); err != nil {
		return usage(err)
	}

	if *list {
		fmt.Fprintln(stdout, "benchmarks (Table 2a):")
		for _, s := range workload.Specs {
			fmt.Fprintf(stdout, "  %-12s %-9s paper MPKI %6.1f  pattern %s\n", s.Name, s.Suite, s.PaperMPKI, s.Pattern)
		}
		fmt.Fprintln(stdout, "mixes (Table 2b):")
		for _, m := range workload.Mixes {
			fmt.Fprintf(stdout, "  %-4s (%s): %v\n", m.Name, m.Group, m.Benchmarks)
		}
		return 0
	}

	cfg, ok := preset(*cfgName)
	if !ok {
		return usage(fmt.Errorf("unknown config %q", *cfgName))
	}
	if *mshrX != 1 || *vbf || *dynamic {
		kind := config.MSHRIdealCAM
		if *vbf {
			kind = config.MSHRVBF
		}
		cfg = cfg.WithMSHR(*mshrX, kind, *dynamic)
	}
	if *stackMode != "memory" {
		mode, err := config.ParseStackMode(*stackMode)
		if err != nil {
			return usage(err)
		}
		cfg = cfg.WithStackCache(mode, *stackCapMB)
		cfg.StackWays = *stackWays
		cfg.StackTagLatency = *stackTagLat
		if *stackFill > 0 {
			cfg.StackFillBytes = *stackFill
		}
		if mode == config.StackMemCache {
			cfg.StackHotFrac = *stackHot
		}
	}
	if _, set := explicit["cores"]; set {
		cfg.Cores = *cores
	}
	if *cohMode != "" {
		mode, err := config.ParseCoherenceMode(*cohMode)
		if err != nil {
			return usage(err)
		}
		if mode == config.CoherencePrivate {
			cfg = cfg.WithMESI(cfg.Cores)
		}
	}
	cfg.WarmupCycles = *warmup
	cfg.MeasureCycles = *measure
	cfg.Seed = *seed
	cfg.CriticalWordFirst = *cwf
	cfg.SmartRefresh = *smart
	cfg.MSHRUnified = *unified

	if *faultScenario != "" {
		sc, err := fault.Load(*faultScenario)
		if err != nil {
			return fatal(err)
		}
		if *faultSeed != 0 {
			sc.Seed = *faultSeed
		}
		cfg.Faults = sc
		if sc.Name != "" {
			// The scenario participates in the run's identity: sweep memo
			// keys and exported metrics must not collide with fault-free
			// runs of the same organization.
			cfg.Name += "+" + sc.Name
		}
	}

	// The machine is assembled and nothing has written a file: what
	// config.Validate rejects is a usage error here, not a failed run later.
	if err := cfg.Validate(); err != nil {
		return usage(err)
	}

	// The workload is the last thing that can be a usage error. The
	// canonical mix label keys the ledger the same way the sweep and the
	// experiment harness do, so all three dedupe against each other; w
	// stays the zero Workload for trace-driven runs, which the ledger
	// never addresses. labels name the cores in the manifest.
	var w workload.Workload
	mixes := strings.Split(*mixName, ",")
	switch {
	case *traces != "":
	case *mixName != "":
		for i := range mixes {
			var err error
			if w, err = workload.OfMix(strings.TrimSpace(mixes[i])); err != nil {
				return usage(err)
			}
			mixes[i] = w.String()
		}
	case *benches == "":
		return usage(errors.New("need -mix or -bench (see -list)"))
	case cfg.Coherent() && cfg.Cores > 1 && !strings.Contains(*benches, ","):
		// A coherent many-core run with a single benchmark means
		// "run it on every core" (the -exp manycore convention);
		// seed-mode runs keep the one-core-per-entry behavior.
		w = workload.Uniform(*benches, cfg.Cores)
	default:
		w = workload.List(strings.Split(*benches, ",")...)
	}
	labels := w.Benchmarks() // every mix of a sweep has as many
	if *traces != "" {
		labels = strings.Split(*traces, ",")
	}
	if len(labels) > cfg.Cores {
		return usage(fmt.Errorf("the workload has %d programs, the machine %d cores (see -cores)", len(labels), cfg.Cores))
	}

	var sys *core.System // a single run's machine, live until the heap profile is written
	if *memProfile != "" {
		// Deferred ahead of the CPU profile, so it runs after that one has
		// stopped, and on every exit from here on: a sweep, a ledger cache
		// hit and an interrupted run leave their heap profile too.
		defer func() {
			if err := writeHeapProfile(*memProfile, sys); err != nil {
				code = max(code, fatal(err))
			}
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// SIGINT/SIGTERM (and -deadline) cancel the simulation between cycle
	// chunks; an interrupted run still reports its partial metrics,
	// flushes telemetry, and shuts the monitor down cleanly.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var led *ledger.Ledger
	if *ledgerDir != "" {
		var err error
		if led, err = ledger.Open(*ledgerDir); err != nil {
			return fatal(err)
		}
	}

	if sweep {
		return runSweep(ctx, stdout, stderr, cfg, mixes, *jobs, led)
	}

	var tel *telemetry.Telemetry
	if *telemetryDir != "" {
		tel = telemetry.New(telemetry.Options{
			Dir:         *telemetryDir,
			SampleEvery: *sampleEvery,
			TraceEvents: *traceEvents,
			TraceSample: *traceSample,
		})
	}

	var err error
	switch {
	case *traces != "":
		sources := make([]cpu.UOpSource, len(labels))
		for i, path := range labels {
			f, err := os.Open(path)
			if err != nil {
				return fatal(err)
			}
			r, err := trace.NewReader(f)
			f.Close()
			if err != nil {
				return fatal(err)
			}
			sources[i] = r
		}
		sys, err = core.NewSystemFromSources(cfg, sources, labels)
	default:
		// A recorded run is served from the ledger instead of simulated
		// — but only when no telemetry was asked for: the time-series and
		// trace artifacts exist only for a live run.
		if led != nil && tel == nil {
			m, rec, rerr := core.Recall(led, cfg, w.Labels())
			if rerr != nil {
				return fatal(rerr)
			}
			if rec != nil {
				fmt.Fprintf(stdout, "ledger: cache hit %s (recorded %s, %.2fs wall); not re-simulating\n",
					rec.Manifest.ID, rec.Manifest.StartedAt, rec.Manifest.WallSeconds)
				report(stdout, cfg, m)
				return 0
			}
		}
		sys, err = core.NewSystem(cfg, labels)
	}
	if err != nil {
		return fatal(err)
	}
	// Power/thermal tracking rides the telemetry registry. Attached
	// before the sampler so each closed window's power.*/thermal.*
	// gauges are already published when the time-series samples them.
	var pt *powerthermal.Tracker
	if tel != nil && *powerOn {
		pt = sys.AttachPowerThermal(tel.Reg(), *sampleEvery)
	}
	sys.AttachTelemetry(tel)

	// Cycle accounting rides on the telemetry registry; its nil-safe
	// tags make -attrib=false (or no telemetry at all) cost one nil
	// check per demand miss.
	var col *attrib.Collector
	if tel != nil && *attribOn {
		col = sys.NewAttribCollector(tel.Reg())
		sys.AttachAttrib(col)
	}

	// The live monitor snapshots the registry from the simulation
	// goroutine at the sampling cadence; HTTP handlers only ever read
	// the published snapshot, so a slow scraper cannot block a cycle.
	var mon *monitor.Server
	if *monitorAddr != "" {
		mon = &monitor.Server{Registry: tel.Reg()}
		if col != nil {
			mon.AttribFn = col.Breakdown
		}
		if pt != nil {
			// Collect runs on the simulation goroutine, so reading the
			// tracker here is race-free.
			mon.PowerThermalFn = pt.State
		}
		if err := mon.Start(*monitorAddr); err != nil {
			return fatal(err)
		}
		defer func() {
			// Graceful: in-flight scrapes of the final snapshot finish.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			mon.Shutdown(sctx) //nolint:errcheck // best-effort on exit
		}()
		fmt.Fprintf(stdout, "monitor: serving /metrics /snapshot /dashboard /healthz and /debug/pprof on %s\n", mon.Addr())
		// -sample-every 0 disables the time-series but the monitor
		// still needs a snapshot cadence; fall back to the default.
		collectEvery := int(*sampleEvery)
		if collectEvery < 1 {
			collectEvery = 1000
		}
		sys.Observe(collectEvery, mon)
	}

	// RunContext fails only when ctx is done: the run was cut off, and
	// rerunning the same command finishes it.
	started := time.Now()
	m, runErr := sys.RunContext(ctx)
	if runErr != nil {
		fmt.Fprintf(stderr, "stacksim: interrupted at cycle %d; metrics below are partial\n", sys.Engine.Now())
	}
	report(stdout, cfg, m)
	engineReport(stdout, sys)
	if mon != nil {
		// Publish the end-of-run state for scrapes that outlive the run.
		mon.Collect(sys.Engine.Now())
	}
	if col != nil {
		fmt.Fprint(stdout, col.Breakdown().Table())
	}
	if pt != nil {
		fmt.Fprint(stdout, pt.Report())
	}

	// Record the completed run before the telemetry export so the
	// exported manifest's wall time prices the ledger write too. Only
	// finished runs are recorded: a partial result must never be served
	// as the real answer later.
	if led != nil && runErr == nil && len(w.Labels()) > 0 {
		if err := recordRun(stdout, led, cfg, w.Labels(), &m, col, pt, started); err != nil {
			return fatal(err)
		}
	}

	if tel != nil {
		// Export everything alongside the manifest (the sampler closes
		// its series on the final cycle during Export).
		err := tel.Export(telemetry.Manifest{
			Config:      cfg.Name,
			Seed:        cfg.Seed,
			Workload:    labels,
			Flags:       explicit,
			GitDescribe: ledger.GitDescribe(),
			StartedAt:   started.UTC().Format(time.RFC3339),
			WallSeconds: time.Since(started).Seconds(),
			Cycles:      int64(sys.Engine.Now()),
		})
		if err != nil {
			return fatal(err)
		}
		if col != nil {
			if err := writeJSON(filepath.Join(*telemetryDir, "attrib.json"), col.Breakdown()); err != nil {
				return fatal(err)
			}
		}
		if pt != nil {
			if err := writeJSON(filepath.Join(*telemetryDir, "powerthermal.json"), pt.Summary()); err != nil {
				return fatal(err)
			}
		}
		fmt.Fprintf(stdout, "telemetry: exports written to %s\n", *telemetryDir)
	}

	if runErr != nil {
		// Everything useful was flushed above; now fail the invocation.
		return 1
	}
	return 0
}

// validateFlags rejects flag combinations that would otherwise be
// silent no-ops: the telemetry sub-flags do nothing without
// -telemetry-dir, and the monitor serves a single run's registry, so it
// conflicts with sweep mode. Which machines are legal is not its business:
// run asks config.Validate about the assembled config. explicit holds the
// flags set on the command line; the returned error is the usage message,
// without the "stacksim: " prefix.
func validateFlags(explicit map[string]string, telemetryDir string, sampleEvery int64, monitorAddr string, sweep bool,
	traces, stackMode, ledgerDir string, jobs int) error {
	set := func(name string) bool { _, ok := explicit[name]; return ok }
	if stackMode == "memory" {
		for _, name := range []string{"stack-cap-mb", "stack-ways", "stack-tag-lat",
			"stack-fill-bytes", "stack-hot-frac"} {
			if set(name) {
				return fmt.Errorf("-%s does nothing in memory mode; add -stack-mode cache or memcache", name)
			}
		}
	}
	if set("stack-hot-frac") && stackMode == "cache" {
		return errors.New("-stack-hot-frac only applies to -stack-mode memcache")
	}
	if telemetryDir == "" {
		for _, name := range []string{"sample-every", "trace-events", "trace-sample", "attrib", "power"} {
			if set(name) {
				return fmt.Errorf("-%s does nothing without -telemetry-dir; add -telemetry-dir <dir>", name)
			}
		}
	}
	if explicit["trace-events"] == "true" && explicit["attrib"] == "false" {
		return errors.New("-trace-events draws the trace from the attribution tags; it conflicts with -attrib=false")
	}
	if set("fault-seed") && !set("fault-scenario") {
		return errors.New("-fault-seed does nothing without -fault-scenario")
	}
	// 0 is meaningful (disable the time-series, keep the other
	// exports); only negative intervals are nonsense.
	if sampleEvery < 0 {
		return errors.New("-sample-every must be >= 0 cycles (0 disables the time-series)")
	}
	// The ledger addresses a run by its config and workload *names*; a
	// trace workload's behavior lives in the trace file contents, which
	// the digest never sees, so a hit could serve the wrong run.
	if ledgerDir != "" && traces != "" {
		return errors.New("-ledger-dir conflicts with -traces (trace contents are outside the run's content address)")
	}
	if monitorAddr != "" {
		if sweep {
			return errors.New("-monitor-addr serves a single run; it conflicts with a multi-mix sweep (a sweep reports its runs on stdout)")
		}
		if telemetryDir == "" {
			return errors.New("-monitor-addr needs the telemetry registry; add -telemetry-dir <dir>")
		}
	}
	if jobs < 0 {
		return errors.New("-j must be >= 0 (0 = GOMAXPROCS)")
	}
	if sweep && (telemetryDir != "" || traces != "") {
		return errors.New("-telemetry-dir and -traces describe a single run; use one -mix")
	}
	if !sweep && jobs > 1 {
		return errors.New("-j only applies to a multi-mix sweep (comma-separated -mix)")
	}
	return nil
}

// writeJSON exports one telemetry artifact as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeHeapProfile writes the -memprofile file: the live heap after a
// collection, with keep — the run's machine — still reachable, so that
// the in-use view shows what the machine holds rather than what is left
// once it is gone.
func writeHeapProfile(path string, keep any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	runtime.KeepAlive(keep)
	if err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSweep fans a list of canonical mix labels over the Runner's worker
// pool and reports one summary line per mix, in the order given. The
// report is independent of -j: runs are deterministic in isolation and
// collection follows submission order. A cancelled or failed run marks
// its own line and the exit code; completed siblings still print.
func runSweep(ctx context.Context, stdout, stderr io.Writer, cfg *config.Config, mixes []string, jobs int, led *ledger.Ledger) int {
	r := core.NewRunner(cfg.WarmupCycles, cfg.MeasureCycles)
	r.Workers = jobs
	r.Ctx = ctx
	if led != nil {
		r.Ledger = led
		r.GitRevision = ledger.GitDescribe()
	}
	started := time.Now()
	r.Prefetch(cfg, mixes...)
	fmt.Fprintf(stdout, "config: %s   warmup=%d measured=%d cycles   %d mixes\n",
		cfg.Name, cfg.WarmupCycles, cfg.MeasureCycles, len(mixes))
	failed := 0
	for _, mix := range mixes {
		m, err := r.MixMetrics(cfg, mix)
		if err != nil {
			fmt.Fprintf(stdout, "  %-4s FAILED: %v\n", mix, err)
			failed++
			continue
		}
		fmt.Fprintf(stdout, "  %-4s HMIPC=%.4f  L2miss=%.3f  rowhit=%.3f  busutil=%.3f\n",
			mix, m.HMIPC, m.L2MissRate, m.RowHitRate, m.BusUtilization)
	}
	workers := jobs
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(stdout, "sweep: %d runs in %.2fs (j=%d)\n", r.Runs(), time.Since(started).Seconds(), workers)
	if led != nil {
		fmt.Fprintf(stdout, "ledger: %d of %d runs served from %s\n",
			r.Status().LedgerHits, len(mixes), led.Dir())
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "stacksim: %d of %d sweep runs failed\n", failed, len(mixes))
		return 1
	}
	return 0
}

// recordRun appends the completed run to the ledger — the same record a
// sweep writes for it — plus the attribution / power-thermal payloads
// when those trackers ran.
func recordRun(stdout io.Writer, led *ledger.Ledger, cfg *config.Config, labels []string, m *core.Metrics,
	col *attrib.Collector, pt *powerthermal.Tracker, started time.Time,
) error {
	rec, err := core.NewRunRecord(cfg, labels, m, "", ledger.GitDescribe(), started, time.Since(started).Seconds())
	if err != nil {
		return err
	}
	if col != nil {
		if data, jerr := json.Marshal(col.Breakdown()); jerr == nil {
			rec.Attrib = data
		}
	}
	if pt != nil {
		if data, jerr := json.Marshal(pt.Summary()); jerr == nil {
			rec.PowerThermal = data
		}
	}
	added, err := led.Put(rec)
	if err != nil {
		return err
	}
	if added {
		fmt.Fprintf(stdout, "ledger: recorded %s in %s\n", rec.Manifest.ID, led.Dir())
	} else {
		fmt.Fprintf(stdout, "ledger: %s already recorded in %s\n", rec.Manifest.ID, led.Dir())
	}
	return nil
}

// engineReport prints how hard the event-driven engine worked for the
// run: ticks actually delivered vs cycles simulated, the share of
// cycles jumped without stepping, and how well the request pool kept
// the hot path allocation-free. The same numbers are exported as
// engine.* gauges when telemetry is on.
func engineReport(stdout io.Writer, sys *core.System) {
	er := sys.EngineReport()
	if er.Cycles == 0 {
		return
	}
	fmt.Fprintf(stdout, "engine: %d ticks / %d cycles (%.2f ticks/cycle), %d cycles skipped (%.1f%%)\n",
		er.TicksDelivered, er.Cycles, er.TicksPerCycle, er.CyclesSkipped, 100*er.SkipRatio)
	if er.PoolGets > 0 {
		fmt.Fprintf(stdout, "  request pool: %d requests, %.1f%% served from the free list\n",
			er.PoolGets, 100*er.PoolHitRate)
	}
}

// report prints the collected metrics.
func report(stdout io.Writer, cfg *config.Config, m core.Metrics) {
	fmt.Fprintf(stdout, "config: %s   warmup=%d measured=%d cycles\n", cfg.Name, cfg.WarmupCycles, cfg.MeasureCycles)
	fmt.Fprintf(stdout, "HMIPC: %.4f\n", m.HMIPC)
	for i, b := range m.Benchmarks {
		fmt.Fprintf(stdout, "  core%d %-12s IPC=%.4f  L2 demand MPKI=%.1f\n", i, b, m.IPC[i], m.MPKI[i])
	}
	fmt.Fprintf(stdout, "L2 miss rate:      %.3f\n", m.L2MissRate)
	fmt.Fprintf(stdout, "DRAM row-hit rate: %.3f\n", m.RowHitRate)
	fmt.Fprintf(stdout, "bus utilization:   %.3f\n", m.BusUtilization)
	fmt.Fprintf(stdout, "DRAM reads/writes: %d / %d\n", m.DRAMReads, m.DRAMWrites)
	fmt.Fprintf(stdout, "MSHR-full set-asides: %d\n", m.MSHRFullStalls)
	fmt.Fprintf(stdout, "DRAM energy: %s\n", m.Energy)
	if m.EnergyBacking.TotalUJ() > 0 {
		fmt.Fprintf(stdout, "backing energy: %s\n", m.EnergyBacking)
	}
	if st := m.Stack; st.Probes+st.DirectReads+st.DirectWrites > 0 {
		fmt.Fprintf(stdout, "stack cache: hit rate %.3f  (probes=%d hits=%d merges=%d fills=%d)\n",
			m.StackHitRate, st.Probes, st.Hits, st.MissMerges, st.Fills)
		fmt.Fprintf(stdout, "  writebacks absorbed/forwarded: %d / %d   backing reads/writes: %d / %d\n",
			st.WritebacksIn, st.WritebacksOut, m.BackingReads, m.BackingWrites)
		if st.DirectReads+st.DirectWrites > 0 {
			fmt.Fprintf(stdout, "  hot-region direct reads/writes: %d / %d\n", st.DirectReads, st.DirectWrites)
		}
	}
	if cs := m.Coherence; cs.Accesses > 0 {
		fmt.Fprintf(stdout, "coherence: upgrades=%d invalidations=%d c2c=%d wb-races=%d\n",
			cs.Upgrades, cs.Invalidations, cs.C2CTransfers, cs.WBRaces)
		n := m.NoC
		fmt.Fprintf(stdout, "noc: injected=%d delivered=%d avg-latency=%.1f avg-hops=%.1f\n",
			n.Injected, n.Delivered, n.AvgLatency(), n.AvgHops())
	}
	if pf := m.PrefetchL1; pf.Issued > 0 {
		fmt.Fprintf(stdout, "L1 prefetch: issued=%d useful=%d accuracy=%.2f drops=%d\n",
			pf.Issued, pf.Useful, pf.Accuracy(), pf.Drops)
	}
	if pf := m.PrefetchL2; pf.Issued > 0 {
		fmt.Fprintf(stdout, "L2 prefetch: issued=%d useful=%d accuracy=%.2f drops=%d\n",
			pf.Issued, pf.Useful, pf.Accuracy(), pf.Drops)
	}
	if m.RefreshSkipRate > 0 {
		fmt.Fprintf(stdout, "refreshes skipped: %.1f%%\n", 100*m.RefreshSkipRate)
	}
	if m.ProbesPerAccess > 0 {
		fmt.Fprintf(stdout, "MSHR probes/access: %.2f\n", m.ProbesPerAccess)
	}
	if f := m.Faults; f.Total() > 0 {
		fmt.Fprintf(stdout, "faults injected: %d  (ECC corrected=%d uncorrectable=%d retry-cycles=%d)\n",
			f.Total(), f.BitErrorsCorrected, f.BitErrorsUncorrectable, f.ECCRetryCycles)
		fmt.Fprintf(stdout, "  rank remaps=%d blocked=%d  MC stall-edges=%d  TSV degraded=%d dead-wait=%d  MSHR parity=%d\n",
			f.RankRemaps, f.RankBlocked, f.MCStallEdges, f.LinkDegradedTransfers, f.LinkDeadWaitCycles, f.MSHRParityErrors)
	}
}
