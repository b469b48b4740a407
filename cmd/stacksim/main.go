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
// timeseries.jsonl, distributions.json, attrib.json, powerthermal.json
// and (with -trace-events) trace.json into the directory, and prints
// the memory-latency attribution table (disable with -attrib=false)
// plus the power/thermal report with the per-bank activity heatmap and
// per-layer temperature trajectory (disable with -power=false).
// -monitor-addr serves /metrics, /snapshot, /healthz and pprof live
// during the run, plus the run ledger endpoints (/runs, /compare,
// /dashboard) when -ledger-dir is set; see docs/OBSERVABILITY.md.
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
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
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

func main() {
	var (
		cfgName = flag.String("config", "3D-fast", "preset: 2D, 3D, 3D-wide, 3D-fast, dualMC, quadMC")
		mixName = flag.String("mix", "", "Table 2b mix to run (H1..M3)")
		benches = flag.String("bench", "", "comma-separated benchmarks (alternative to -mix)")
		warmup  = flag.Int64("warmup", 200_000, "warmup cycles")
		measure = flag.Int64("measure", 600_000, "measured cycles")
		mshrX   = flag.Int("mshr", 1, "L2 MSHR capacity multiplier (1,2,4,8)")
		vbf     = flag.Bool("vbf", false, "use the VBF-based L2 MSHR")
		dynamic = flag.Bool("dynamic", false, "enable dynamic MSHR resizing")
		seed    = flag.Int64("seed", 1, "workload seed")
		cwf     = flag.Bool("cwf", false, "critical-word-first read delivery")
		smart   = flag.Bool("smartrefresh", false, "skip refreshes for access-restored rows")
		unified = flag.Bool("unified-mshr", false, "one shared L2 MSHR file instead of per-MC banks")

		stackMode   = flag.String("stack-mode", "memory", "stacked-DRAM use: memory (all of main memory), cache, or memcache (hot region + cache)")
		stackCapMB  = flag.Int("stack-cap-mb", 64, "stack capacity in MB (cache/memcache modes)")
		stackWays   = flag.Int("stack-ways", 16, "stack cache associativity")
		stackSRAM   = flag.Bool("stack-tags-sram", true, "tag directory in SRAM (false = tags stored in the stacked DRAM)")
		stackTagLat = flag.Int("stack-tag-lat", 2, "SRAM tag-probe latency in CPU cycles")
		stackFill   = flag.Int("stack-fill-bytes", 0, "fill/allocation granularity in bytes (0 = one page)")
		stackHot    = flag.Float64("stack-hot-frac", 0.5, "memcache: fraction of the stack that is direct-addressed hot memory")
		cohMode     = flag.String("coherence", "", "coherence mode: shared (seed default) or mesi (private per-core L2s under a directory protocol)")
		topology    = flag.String("topology", "", "interconnect: bus (seed default) or mesh (2D mesh NoC; required by -coherence mesi)")
		cores       = flag.Int("cores", 0, "override the core count (0 = preset; counts > 4 need -coherence mesi)")

		traces = flag.String("traces", "", "comma-separated trace files (from tracegen), one per core")
		list   = flag.Bool("list", false, "list benchmarks and mixes, then exit")
		jobs   = flag.Int("j", 0, "concurrent simulations for a multi-mix sweep (0 = GOMAXPROCS)")

		faultScenario = flag.String("fault-scenario", "", "JSON fault scenario to inject into the memory hierarchy (see docs/ROBUSTNESS.md)")
		faultSeed     = flag.Int64("fault-seed", 0, "override the scenario's fault-stream seed (0 keeps the scenario/run default)")
		checkpoint    = flag.String("checkpoint", "", "write periodic replay checkpoints to this file (single run only)")
		ckptEvery     = flag.Int64("checkpoint-every", 1_000_000, "cycles between checkpoint writes")
		resume        = flag.String("resume", "", "resume from this checkpoint file; the run's config and workload come from the checkpoint")
		deadline      = flag.Duration("deadline", 0, "wall-clock limit for the run (0 = none); a cut-off run still reports and exports")

		telemetryDir = flag.String("telemetry-dir", "", "directory for telemetry exports (enables telemetry)")
		sampleEvery  = flag.Int64("sample-every", 1000, "time-series sample interval in cycles")
		traceEvents  = flag.Bool("trace-events", false, "emit Chrome trace_event JSON for sampled request lifecycles")
		traceSample  = flag.Int("trace-sample", 64, "trace 1 in N demand-miss lifecycles")
		attribOn     = flag.Bool("attrib", true, "memory-latency attribution (cycle accounting) when telemetry is enabled")
		powerOn      = flag.Bool("power", true, "power/thermal tracking (per-layer power, transient temperatures) when telemetry is enabled")
		monitorAddr  = flag.String("monitor-addr", "", "serve /metrics, /snapshot, /healthz and pprof on this address during the run")
		ledgerDir    = flag.String("ledger-dir", "", "content-addressed run ledger: record completed runs here and serve known (config, workload, seed) runs from it without re-simulating")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()
	validateFlags(*telemetryDir, *sampleEvery, *monitorAddr, *mixName,
		*checkpoint, *resume, *traces, *ckptEvery, *stackMode, *ledgerDir,
		*cohMode, *cores, *faultScenario, *dynamic)

	if *list {
		fmt.Println("benchmarks (Table 2a):")
		for _, s := range workload.Specs {
			fmt.Printf("  %-12s %-9s paper MPKI %6.1f  pattern %s\n", s.Name, s.Suite, s.PaperMPKI, s.Pattern)
		}
		fmt.Println("mixes (Table 2b):")
		for _, m := range workload.Mixes {
			fmt.Printf("  %-4s (%s): %v\n", m.Name, m.Group, m.Benchmarks)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	cfg, ok := preset(*cfgName)
	if !ok {
		fmt.Fprintf(os.Stderr, "stacksim: unknown config %q\n", *cfgName)
		os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "stacksim: %v\n", err)
			os.Exit(2)
		}
		cfg = cfg.WithStackCache(mode, *stackCapMB)
		cfg.StackWays = *stackWays
		cfg.StackTagsInSRAM = *stackSRAM
		cfg.StackTagLatency = *stackTagLat
		if *stackFill > 0 {
			cfg.StackFillBytes = *stackFill
		}
		if mode == config.StackMemCache {
			cfg.StackHotFrac = *stackHot
		}
	}
	if *cohMode != "" || *topology != "" || *cores > 0 {
		cfg = applyManycore(cfg, *cohMode, *topology, *cores)
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
			fatal(err)
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
		var lerr error
		if led, lerr = ledger.Open(*ledgerDir); lerr != nil {
			fatal(lerr)
		}
	}

	if strings.Contains(*mixName, ",") {
		if *telemetryDir != "" || *traces != "" {
			fmt.Fprintln(os.Stderr, "stacksim: -telemetry-dir and -traces describe a single run; use one -mix")
			os.Exit(2)
		}
		runSweep(ctx, cfg, strings.Split(*mixName, ","), *jobs, *warmup, *measure, led)
		return
	}
	if *jobs > 1 {
		fmt.Fprintln(os.Stderr, "stacksim: -j only applies to a multi-mix sweep (comma-separated -mix)")
		os.Exit(2)
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

	var sys *core.System
	var err error
	var labels, workloadKey []string
	if *resume != "" {
		cp, lerr := core.LoadCheckpoint(*resume)
		if lerr != nil {
			fatal(lerr)
		}
		cfg = cp.Config
		labels = cp.Benchmarks
		sys, err = core.NewSystemFromCheckpoint(cp)
		fmt.Printf("resume: %s at cycle %d (%s)\n", *resume, cp.Cycle, cfg.Name)
	} else if *traces != "" {
		files := strings.Split(*traces, ",")
		sources := make([]cpu.UOpSource, len(files))
		for i, path := range files {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			r, err := trace.NewReader(f)
			f.Close()
			if err != nil {
				fatal(err)
			}
			sources[i] = r
		}
		labels = files
		sys, err = core.NewSystemFromSources(cfg, sources, files)
	} else {
		switch {
		case *mixName != "":
			mix, ok := workload.MixByName(*mixName)
			if !ok {
				fmt.Fprintf(os.Stderr, "stacksim: unknown mix %q\n", *mixName)
				os.Exit(2)
			}
			labels = mix.Benchmarks[:]
			// The canonical mix name keys the ledger the same way the
			// experiment harness does, so a stacksim run and a sweep run
			// of the same organization dedupe against each other.
			workloadKey = []string{"mix:" + mix.Name}
		case *benches != "":
			labels = strings.Split(*benches, ",")
			// A coherent many-core run with a single benchmark means
			// "run it on every core" (the -exp manycore convention);
			// seed-mode runs keep the one-core-per-entry behavior.
			if cfg.Coherent() && len(labels) == 1 && cfg.Cores > 1 {
				uniform := make([]string, cfg.Cores)
				for i := range uniform {
					uniform[i] = labels[0]
				}
				labels = uniform
			}
			for _, b := range labels {
				workloadKey = append(workloadKey, "bench:"+b)
			}
		default:
			fmt.Fprintln(os.Stderr, "stacksim: need -mix or -bench (see -list)")
			os.Exit(2)
		}
		// A recorded run is served from the ledger instead of simulated
		// — but only when no telemetry was asked for: the time-series and
		// trace artifacts exist only for a live run.
		if led != nil && *telemetryDir == "" {
			if m, rec, ok := ledgerRecall(led, cfg, workloadKey); ok {
				fmt.Printf("ledger: cache hit %s (recorded %s, %.2fs wall); not re-simulating\n",
					rec.Manifest.ID, rec.Manifest.StartedAt, rec.Manifest.WallSeconds)
				report(cfg, m)
				return
			}
		}
		sys, err = core.NewSystem(cfg, labels)
	}
	if err != nil {
		fatal(err)
	}
	// Power/thermal tracking rides the telemetry registry. Attached
	// before the sampler so each closed window's power.*/thermal.*
	// gauges are already published when the time-series samples them.
	var pt *core.PowerThermal
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
		mon = &monitor.Server{Registry: tel.Reg(), Ledger: led}
		if col != nil {
			mon.AttribFn = col.Breakdown
		}
		if *checkpoint != "" {
			// A checkpointed run's crash-recovery story depends on the
			// checkpoint directory staying writable; surface trouble on
			// /healthz as degraded instead of only failing at the next
			// periodic write.
			dir := filepath.Dir(*checkpoint)
			mon.HealthFn = func() []monitor.HealthCheck {
				check := monitor.HealthCheck{Name: "checkpoint", Status: "ok", Detail: dir}
				if probe, err := os.CreateTemp(dir, ".healthz-*"); err != nil {
					check.Status = "degraded"
					check.Detail = err.Error()
				} else {
					probe.Close()
					os.Remove(probe.Name())
				}
				return []monitor.HealthCheck{check}
			}
		}
		if pt != nil {
			// Collect runs on the simulation goroutine, so reading the
			// tracker here is race-free.
			mon.PowerThermalFn = func() *monitor.PowerThermal {
				return powerThermalWire(pt.Summary())
			}
		}
		if err := mon.Start(*monitorAddr); err != nil {
			fatal(err)
		}
		defer func() {
			// Graceful: in-flight scrapes of the final snapshot finish.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			mon.Shutdown(sctx) //nolint:errcheck // best-effort on exit
		}()
		fmt.Printf("monitor: serving /metrics /snapshot /dashboard /healthz and /debug/pprof on %s\n", mon.Addr())
		// -sample-every 0 disables the time-series but the monitor
		// still needs a snapshot cadence; fall back to the default.
		collectEvery := int(*sampleEvery)
		if collectEvery < 1 {
			collectEvery = 1000
		}
		sys.Engine.RegisterEvery(collectEvery, 0, mon)
	}

	started := time.Now()
	var m core.Metrics
	var runErr error
	if *checkpoint != "" || *resume != "" {
		path := *checkpoint
		if path == "" {
			path = *resume
		}
		m, runErr = sys.RunCheckpointed(ctx, core.CheckpointPlan{
			Every: *ckptEvery, Path: path, Resume: *resume != "",
		})
		if runErr != nil && ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "stacksim: interrupted at cycle %d; checkpoint saved to %s\n", sys.Engine.Now(), path)
		}
	} else {
		m, runErr = sys.RunContext(ctx)
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "stacksim: interrupted at cycle %d; metrics below are partial\n", sys.Engine.Now())
		}
	}
	if runErr != nil && ctx.Err() == nil {
		// Not a cancellation: a bad checkpoint or a failed write.
		fatal(runErr)
	}
	report(cfg, m)
	engineReport(sys)
	if mon != nil {
		// Publish the end-of-run state for scrapes that outlive the run.
		mon.Collect(sys.Engine.Now())
	}
	if col != nil {
		fmt.Print(col.Breakdown().Table())
	}
	if pt != nil {
		fmt.Print(pt.Report())
	}

	// Record the completed run before the telemetry export so the
	// exported manifest's wall time prices the ledger write too (that is
	// what scripts/bench.sh gates). Only finished runs are recorded: a
	// partial result must never be served as the real answer later.
	if led != nil && runErr == nil && len(workloadKey) > 0 {
		recordRun(led, cfg, workloadKey, &m, sys, tel, col, pt, started)
	}

	if tel != nil {
		// Export everything alongside the manifest (the sampler closes
		// its series on the final cycle during Export).
		err := tel.Export(telemetry.Manifest{
			Config:      cfg.Name,
			Seed:        cfg.Seed,
			Workload:    labels,
			Flags:       flagValues(),
			GitDescribe: gitDescribe(),
			StartedAt:   started.UTC().Format(time.RFC3339),
			WallSeconds: time.Since(started).Seconds(),
			Cycles:      int64(sys.Engine.Now()),
		})
		if err != nil {
			fatal(err)
		}
		if col != nil {
			if err := writeAttribJSON(filepath.Join(*telemetryDir, "attrib.json"), col.Breakdown()); err != nil {
				fatal(err)
			}
		}
		if pt != nil {
			if err := writeJSON(filepath.Join(*telemetryDir, "powerthermal.json"), pt.Summary()); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("telemetry: exports written to %s\n", *telemetryDir)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if runErr != nil {
		// Everything useful was flushed above; now fail the invocation.
		// os.Exit skips the deferred graceful shutdown, so do it here
		// (Shutdown is idempotent).
		if mon != nil {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			mon.Shutdown(sctx) //nolint:errcheck // best-effort on exit
			cancel()
		}
		os.Exit(1)
	}
}

// applyManycore applies the coherent-mode flags on top of the chosen
// preset: parse the mode/topology spellings, override the core count,
// fill the mesh and private-L2 knobs from the ManyCore preset, and
// validate here so a bad combination (non-square mesh, MCs not
// dividing the cores) exits 2 with the config error instead of
// surfacing later as a run failure.
func applyManycore(cfg *config.Config, coherence, topology string, cores int) *config.Config {
	if coherence != "" {
		m, err := config.ParseCoherenceMode(coherence)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stacksim: %v\n", err)
			os.Exit(2)
		}
		cfg.Coherence = m
	}
	if topology != "" {
		tp, err := config.ParseTopology(topology)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stacksim: %v\n", err)
			os.Exit(2)
		}
		cfg.Topology = tp
	} else if cfg.Coherent() {
		cfg.Topology = config.TopoMesh // mesi implies the mesh
	}
	if cores > 0 {
		cfg.Cores = cores
	}
	if cfg.Coherent() {
		donor := config.ManyCore(16, 4)
		cfg.MeshLinkBytes = donor.MeshLinkBytes
		cfg.MeshLinkLatency = donor.MeshLinkLatency
		cfg.MeshRouterLatency = donor.MeshRouterLatency
		cfg.MeshBufPkts = donor.MeshBufPkts
		cfg.PrivL2KB = donor.PrivL2KB
		cfg.PrivL2Ways = donor.PrivL2Ways
		cfg.PrivL2Latency = donor.PrivL2Latency
		cfg.PrivL2MSHRs = donor.PrivL2MSHRs
		cfg.DirLatency = donor.DirLatency
		cfg.Name = fmt.Sprintf("%s-%dc-mesh", cfg.Name, cfg.Cores)
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "stacksim: %v\n", err)
		os.Exit(2)
	}
	return cfg
}

// validateFlags rejects flag combinations that would otherwise be
// silent no-ops: the telemetry sub-flags do nothing without
// -telemetry-dir, the monitor serves a single run's registry, so it
// conflicts with sweep mode, and checkpoint/resume describe one
// generator-driven run.
func validateFlags(telemetryDir string, sampleEvery int64, monitorAddr, mixName,
	checkpoint, resume, traces string, ckptEvery int64, stackMode, ledgerDir string,
	coherence string, cores int, faultScenario string, dynamic bool) {
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if explicit["topology"] && coherence != "mesi" {
		fmt.Fprintln(os.Stderr, "stacksim: -topology does nothing without -coherence mesi (the shared L2 has no modeled interconnect)")
		os.Exit(2)
	}
	if cores > 4 && coherence != "mesi" {
		fmt.Fprintf(os.Stderr, "stacksim: -cores %d needs the directory/mesh hierarchy; add -coherence mesi\n", cores)
		os.Exit(2)
	}
	if explicit["cores"] && cores <= 0 {
		fmt.Fprintln(os.Stderr, "stacksim: -cores must be a positive core count")
		os.Exit(2)
	}
	if coherence == "mesi" {
		if stackMode != "memory" {
			fmt.Fprintln(os.Stderr, "stacksim: -coherence mesi requires -stack-mode memory (directory banks ride the stacked controllers)")
			os.Exit(2)
		}
		if faultScenario != "" {
			fmt.Fprintln(os.Stderr, "stacksim: -coherence mesi does not support -fault-scenario")
			os.Exit(2)
		}
		if dynamic {
			fmt.Fprintln(os.Stderr, "stacksim: -dynamic resizes the shared L2's MSHR banks; it does nothing under -coherence mesi")
			os.Exit(2)
		}
		if resume != "" || checkpoint != "" {
			fmt.Fprintln(os.Stderr, "stacksim: -checkpoint/-resume do not support -coherence mesi runs yet")
			os.Exit(2)
		}
	}
	if stackMode == "memory" {
		for _, name := range []string{"stack-cap-mb", "stack-ways", "stack-tags-sram",
			"stack-tag-lat", "stack-fill-bytes", "stack-hot-frac"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "stacksim: -%s does nothing in memory mode; add -stack-mode cache or memcache\n", name)
				os.Exit(2)
			}
		}
	}
	if explicit["stack-hot-frac"] && stackMode == "cache" {
		fmt.Fprintln(os.Stderr, "stacksim: -stack-hot-frac only applies to -stack-mode memcache")
		os.Exit(2)
	}
	if telemetryDir == "" {
		for _, name := range []string{"sample-every", "trace-events", "trace-sample", "attrib", "power"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "stacksim: -%s does nothing without -telemetry-dir; add -telemetry-dir <dir>\n", name)
				os.Exit(2)
			}
		}
	}
	if checkpoint != "" || resume != "" {
		if strings.Contains(mixName, ",") {
			fmt.Fprintln(os.Stderr, "stacksim: -checkpoint/-resume describe a single run; they conflict with a multi-mix sweep")
			os.Exit(2)
		}
		if traces != "" {
			fmt.Fprintln(os.Stderr, "stacksim: -checkpoint/-resume rebuild the workload from benchmark generators; they conflict with -traces")
			os.Exit(2)
		}
	}
	if resume != "" {
		// The checkpoint carries the run's full config, workload and
		// fault scenario; flags that would contradict it are rejected
		// rather than silently ignored.
		for _, name := range []string{"config", "mix", "bench", "fault-scenario", "fault-seed", "seed", "warmup", "measure"} {
			if explicit[name] {
				fmt.Fprintf(os.Stderr, "stacksim: -%s conflicts with -resume (the checkpoint carries the run's config)\n", name)
				os.Exit(2)
			}
		}
	}
	if explicit["checkpoint-every"] && checkpoint == "" && resume == "" {
		fmt.Fprintln(os.Stderr, "stacksim: -checkpoint-every does nothing without -checkpoint or -resume")
		os.Exit(2)
	}
	if ckptEvery <= 0 && (checkpoint != "" || resume != "") {
		fmt.Fprintln(os.Stderr, "stacksim: -checkpoint-every must be a positive cycle count")
		os.Exit(2)
	}
	if explicit["fault-seed"] && !explicit["fault-scenario"] {
		fmt.Fprintln(os.Stderr, "stacksim: -fault-seed does nothing without -fault-scenario")
		os.Exit(2)
	}
	// 0 is meaningful (disable the time-series, keep the other
	// exports); only negative intervals are nonsense.
	if sampleEvery < 0 {
		fmt.Fprintln(os.Stderr, "stacksim: -sample-every must be >= 0 cycles (0 disables the time-series)")
		os.Exit(2)
	}
	if ledgerDir != "" {
		// The ledger addresses a run by its config and workload *names*;
		// a trace workload's behavior lives in the trace file contents,
		// which the digest never sees, so a hit could serve the wrong
		// run. Checkpoint/resume runs are partial by construction.
		if traces != "" {
			fmt.Fprintln(os.Stderr, "stacksim: -ledger-dir conflicts with -traces (trace contents are outside the run's content address)")
			os.Exit(2)
		}
		if checkpoint != "" || resume != "" {
			fmt.Fprintln(os.Stderr, "stacksim: -ledger-dir conflicts with -checkpoint/-resume (the ledger records only complete, from-scratch runs)")
			os.Exit(2)
		}
	}
	if monitorAddr != "" {
		if strings.Contains(mixName, ",") {
			fmt.Fprintln(os.Stderr, "stacksim: -monitor-addr serves a single run; it conflicts with a multi-mix sweep (use cmd/experiments -monitor-addr for fleet progress)")
			os.Exit(2)
		}
		if telemetryDir == "" {
			fmt.Fprintln(os.Stderr, "stacksim: -monitor-addr needs the telemetry registry; add -telemetry-dir <dir>")
			os.Exit(2)
		}
	}
}

// writeAttribJSON exports the attribution breakdown next to the other
// telemetry artifacts.
func writeAttribJSON(path string, b *attrib.Breakdown) error {
	return writeJSON(path, b)
}

// writeJSON exports one telemetry artifact as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// powerThermalWire adapts the tracker summary into monitor's wire
// shape (monitor stays free of the machine's packages).
func powerThermalWire(s core.PowerThermalSummary) *monitor.PowerThermal {
	out := &monitor.PowerThermal{
		CPUPowerW:        s.CPUPowerW,
		DRAMPowerW:       s.DRAMPowerW,
		OffChipPowerW:    s.OffChipPowerW,
		TotalPowerW:      s.TotalPowerW,
		MaxDRAMTempC:     s.MaxDRAMTempC,
		LimitC:           s.LimitC,
		WithinLimit:      s.WithinLimit,
		LimitExceedances: s.LimitExceedances,
		OverLimitCycles:  s.OverLimitCycles,
		OffChipTempC:     s.OffChipTempC,
	}
	for _, l := range s.Layers {
		out.Layers = append(out.Layers, monitor.PowerThermalLayer{
			Name: l.Name, PowerW: l.PowerW, TempC: l.TempC,
			PeakC: l.PeakC, OverLimitCycles: l.OverLimitCycles,
		})
	}
	return out
}

// runSweep fans a comma-separated mix list over the Runner's worker
// pool and reports one summary line per mix, in the order given. The
// report is independent of -j: runs are deterministic in isolation and
// collection follows submission order. A cancelled or failed run marks
// its own line and the exit code; completed siblings still print.
func runSweep(ctx context.Context, cfg *config.Config, mixes []string, jobs int, warmup, measure int64, led *ledger.Ledger) {
	for i := range mixes {
		mixes[i] = strings.TrimSpace(mixes[i])
		m, ok := workload.MixByName(mixes[i])
		if !ok {
			fmt.Fprintf(os.Stderr, "stacksim: unknown mix %q\n", mixes[i])
			os.Exit(2)
		}
		// Canonical spelling, so the ledger key is casing-independent.
		mixes[i] = m.Name
	}
	r := core.NewRunner(warmup, measure)
	r.Workers = jobs
	r.Ctx = ctx
	if led != nil {
		r.Ledger = led
		r.GitRevision = gitDescribe()
	}
	started := time.Now()
	r.Prefetch(cfg, mixes...)
	fmt.Printf("config: %s   warmup=%d measured=%d cycles   %d mixes\n",
		cfg.Name, warmup, measure, len(mixes))
	failed := 0
	for _, mix := range mixes {
		m, err := r.MixMetrics(cfg, mix)
		if err != nil {
			fmt.Printf("  %-4s FAILED: %v\n", mix, err)
			failed++
			continue
		}
		fmt.Printf("  %-4s HMIPC=%.4f  L2miss=%.3f  rowhit=%.3f  busutil=%.3f\n",
			mix, m.HMIPC, m.L2MissRate, m.RowHitRate, m.BusUtilization)
	}
	workers := jobs
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("sweep: %d runs in %.2fs (j=%d)\n", r.Runs(), time.Since(started).Seconds(), workers)
	if led != nil {
		fmt.Printf("ledger: %d of %d runs served from %s\n",
			r.Status().LedgerHits, len(mixes), led.Dir())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "stacksim: %d of %d sweep runs failed\n", failed, len(mixes))
		os.Exit(1)
	}
}

// ledgerRecall looks the run up by its content address and, on a hit,
// decodes the recorded metrics — numerically identical to re-running.
func ledgerRecall(led *ledger.Ledger, cfg *config.Config, workloadKey []string) (core.Metrics, *ledger.Record, bool) {
	id, _, err := core.RunIdentity(cfg, workloadKey)
	if err != nil {
		fatal(err)
	}
	if !led.Has(id) {
		return core.Metrics{}, nil, false
	}
	rec, err := led.Get(id)
	if err != nil {
		fatal(err)
	}
	m, err := core.RecallMetrics(rec)
	if err != nil {
		fatal(err)
	}
	return m, rec, true
}

// recordRun appends the completed run to the ledger: manifest with the
// real engine-efficiency counters, the registry's final scalars as the
// metric map (when telemetry ran; otherwise the flattened Metrics), and
// the attribution / power-thermal payloads when those trackers ran.
func recordRun(led *ledger.Ledger, cfg *config.Config, workloadKey []string, m *core.Metrics,
	sys *core.System, tel *telemetry.Telemetry, col *attrib.Collector, pt *core.PowerThermal, started time.Time,
) {
	var final map[string]float64
	if tel != nil {
		final = make(map[string]float64)
		tel.Reg().Scalars(func(name string, _ telemetry.MetricKind, v float64) {
			// JSON cannot carry NaN/Inf; dropping a poisoned gauge beats
			// losing the record (the gate still sees it in the exports).
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				final[name] = v
			}
		})
	}
	rec, err := core.NewRunRecord(cfg, workloadKey, m, sys.EngineReport(), final,
		"", gitDescribe(), started, time.Since(started).Seconds())
	if err != nil {
		fatal(err)
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
		fatal(err)
	}
	if added {
		fmt.Printf("ledger: recorded %s in %s\n", rec.Manifest.ID, led.Dir())
	} else {
		fmt.Printf("ledger: %s already recorded in %s\n", rec.Manifest.ID, led.Dir())
	}
}

// flagValues snapshots every explicitly set flag for the manifest.
func flagValues() map[string]string {
	fv := make(map[string]string)
	flag.Visit(func(f *flag.Flag) { fv[f.Name] = f.Value.String() })
	return fv
}

// gitDescribe best-effort identifies the source tree; empty when git is
// unavailable (the manifest field is omitted).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// engineReport prints how hard the event-driven engine worked for the
// run: ticks actually delivered vs cycles simulated, the share of
// cycles jumped without stepping, and how well the request pool kept
// the hot path allocation-free. The same numbers are exported as
// engine.* gauges when telemetry is on.
func engineReport(sys *core.System) {
	er := sys.EngineReport()
	if er.Cycles == 0 {
		return
	}
	fmt.Printf("engine: %d ticks / %d cycles (%.2f ticks/cycle), %d cycles skipped (%.1f%%)\n",
		er.TicksDelivered, er.Cycles, er.TicksPerCycle, er.CyclesSkipped, 100*er.SkipRatio)
	if er.PoolGets > 0 {
		fmt.Printf("  request pool: %d requests, %.1f%% served from the free list\n",
			er.PoolGets, 100*er.PoolHitRate)
	}
}

// report prints the collected metrics.
func report(cfg *config.Config, m core.Metrics) {
	fmt.Printf("config: %s   warmup=%d measured=%d cycles\n", cfg.Name, cfg.WarmupCycles, cfg.MeasureCycles)
	fmt.Printf("HMIPC: %.4f\n", m.HMIPC)
	for i, b := range m.Benchmarks {
		fmt.Printf("  core%d %-12s IPC=%.4f  L2 demand MPKI=%.1f\n", i, b, m.IPC[i], m.MPKI[i])
	}
	fmt.Printf("L2 miss rate:      %.3f\n", m.L2MissRate)
	fmt.Printf("DRAM row-hit rate: %.3f\n", m.RowHitRate)
	fmt.Printf("bus utilization:   %.3f\n", m.BusUtilization)
	fmt.Printf("DRAM reads/writes: %d / %d\n", m.DRAMReads, m.DRAMWrites)
	fmt.Printf("MSHR-full set-asides: %d\n", m.MSHRFullStalls)
	fmt.Printf("DRAM energy: %s\n", m.Energy)
	if m.EnergyBacking.TotalUJ() > 0 {
		fmt.Printf("backing energy: %s\n", m.EnergyBacking)
	}
	if st := m.Stack; st.Probes+st.DirectReads+st.DirectWrites > 0 {
		fmt.Printf("stack cache: hit rate %.3f  (probes=%d hits=%d merges=%d fills=%d)\n",
			m.StackHitRate, st.Probes, st.Hits, st.MissMerges, st.Fills)
		fmt.Printf("  writebacks absorbed/forwarded: %d / %d   backing reads/writes: %d / %d\n",
			st.WritebacksIn, st.WritebacksOut, m.BackingReads, m.BackingWrites)
		if st.DirectReads+st.DirectWrites > 0 {
			fmt.Printf("  hot-region direct reads/writes: %d / %d\n", st.DirectReads, st.DirectWrites)
		}
	}
	if cs := m.Coherence; cs.Accesses > 0 {
		fmt.Printf("coherence: upgrades=%d invalidations=%d c2c=%d wb-races=%d\n",
			cs.Upgrades, cs.Invalidations, cs.C2CTransfers, cs.WBRaces)
		n := m.NoC
		fmt.Printf("noc: injected=%d delivered=%d avg-latency=%.1f avg-hops=%.1f\n",
			n.Injected, n.Delivered, n.AvgLatency(), n.AvgHops())
	}
	if pf := m.PrefetchL1; pf.Issued > 0 {
		fmt.Printf("L1 prefetch: issued=%d useful=%d accuracy=%.2f drops=%d\n",
			pf.Issued, pf.Useful, pf.Accuracy(), pf.Drops)
	}
	if pf := m.PrefetchL2; pf.Issued > 0 {
		fmt.Printf("L2 prefetch: issued=%d useful=%d accuracy=%.2f drops=%d\n",
			pf.Issued, pf.Useful, pf.Accuracy(), pf.Drops)
	}
	if m.RefreshSkipRate > 0 {
		fmt.Printf("refreshes skipped: %.1f%%\n", 100*m.RefreshSkipRate)
	}
	if m.ProbesPerAccess > 0 {
		fmt.Printf("MSHR probes/access: %.2f\n", m.ProbesPerAccess)
	}
	if f := m.Faults; f.Total() > 0 {
		fmt.Printf("faults injected: %d  (ECC corrected=%d uncorrectable=%d retry-cycles=%d)\n",
			f.Total(), f.BitErrorsCorrected, f.BitErrorsUncorrectable, f.ECCRetryCycles)
		fmt.Printf("  rank remaps=%d blocked=%d  MC stall-edges=%d  TSV degraded=%d dead-wait=%d  MSHR parity=%d\n",
			f.RankRemaps, f.RankBlocked, f.MCStallEdges, f.LinkDegradedTransfers, f.LinkDeadWaitCycles, f.MSHRParityErrors)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "stacksim: %v\n", err)
	os.Exit(1)
}
