// Command experiments regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig4,fig6a -measure 1000000 -v
//	experiments -exp all -j 8
//	experiments -exp all -ledger-dir runs/ -monitor-addr :8080
//
// Runs fan out over a worker pool (-j, default GOMAXPROCS); output is
// byte-identical to -j 1 because every simulation is deterministic in
// isolation and figures print in a fixed order.
//
// With -ledger-dir every completed run lands in the content-addressed
// run ledger and already-recorded (config, workload, seed) runs are
// served from it without simulating, so re-generating a figure after an
// unrelated change is nearly free. The monitor then also serves /runs,
// /compare and the /dashboard over the same store.
//
// With -farm host:port each simulation is dispatched to a sim-farm
// coordinator (cmd/simfarm) instead of running in-process. Figures are
// byte-identical either way; worker deaths mid-sweep are absorbed by
// the farm's checkpointed failover.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/farm"
	"stackedsim/internal/floorplan"
	"stackedsim/internal/ledger"
	"stackedsim/internal/monitor"
)

func main() { os.Exit(run()) }

// run is main's body behind an exit code, so the deferred cleanups
// (profile flush, graceful monitor shutdown) run even on failure.
func run() int {
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiments: table1,table2a,table2b,fig4,fig6a,fig6b,fig7a,fig7b,fig9a,fig9b,vbfprobes,energy,banking,stability,stackcap,tsv,thermal,ablations,manycore")
		warmup  = flag.Int64("warmup", 200_000, "warmup cycles per run")
		measure = flag.Int64("measure", 600_000, "measured cycles per run")
		verbose = flag.Bool("v", false, "print per-run progress")
		csvOut  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		jobs    = flag.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		monAddr = flag.String("monitor-addr", "", "serve live runner progress (/metrics, /snapshot, /healthz, pprof) on this address")
		ledDir  = flag.String("ledger-dir", "", "content-addressed run ledger: record completed runs here and serve known runs from it without re-simulating")
		runTmo  = flag.Duration("run-timeout", 0, "per-simulation wall-time limit (0 = none); an over-budget run fails alone")
		farmFlg = flag.String("farm", "", "dispatch simulations to the sim-farm coordinator at this address (host:port) instead of simulating in-process")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file")
	)
	flag.Parse()

	// Reject flag misuse that would otherwise be a silent no-op or
	// nonsense, before any work starts (exit 2, like cmd/stacksim).
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -j must be >= 0 (0 = GOMAXPROCS)")
		return 2
	}
	if *runTmo < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -run-timeout must be >= 0 (0 = no limit)")
		return 2
	}
	if *farmFlg != "" && (*cpuProfile != "" || *memProfile != "") {
		fmt.Fprintln(os.Stderr, "experiments: -cpuprofile/-memprofile profile the local process, but -farm runs the simulations remotely; profile the workers instead")
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
			f.Close()
		}()
	}

	// SIGINT/SIGTERM cancel the sweep: queued runs never start, running
	// simulations stop at their next context check, and every figure
	// whose runs completed still prints before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal the sweep only drains (figures print);
	// restore the default signal disposition so a second ^C exits
	// immediately instead of being silently swallowed.
	go func() {
		<-ctx.Done()
		stop()
	}()

	r := core.NewRunner(*warmup, *measure)
	r.Workers = *jobs
	r.Ctx = ctx
	r.RunTimeout = *runTmo
	if *farmFlg != "" {
		r.Farm = farm.NewClient(*farmFlg)
	}
	if *verbose {
		r.Progress = os.Stderr
	}
	var led *ledger.Ledger
	if *ledDir != "" {
		var err error
		if led, err = ledger.Open(*ledDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		r.Ledger = led
		r.Experiment = *expFlag
		r.GitRevision = ledger.GitDescribe()
	}

	// A long sweep is a black box until it exits; the monitor makes the
	// fleet observable live (queued/running/completed runs plus pprof
	// for the process itself). Simulations own their (per-run, private)
	// registries, so only runner progress is served here.
	if *monAddr != "" {
		mon := &monitor.Server{Ledger: led, ProgressFn: func() monitor.Progress {
			st := r.Status()
			p := monitor.Progress{Queued: st.Queued, Running: st.Running, Completed: st.Completed,
				Failed: st.Failed, LedgerHits: st.LedgerHits, LedgerWriteRetries: st.LedgerWriteRetries}
			for _, rep := range st.Reports {
				mr := monitor.RunReport{Config: rep.Config, Label: rep.Label, WallSeconds: rep.WallSeconds}
				if rep.Err != nil {
					mr.Err = rep.Err.Error()
				}
				p.Runs = append(p.Runs, mr)
			}
			return p
		}}
		if err := mon.Start(*monAddr); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		defer func() {
			// Graceful: let an in-flight scrape of the final state finish.
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			mon.Shutdown(sctx) //nolint:errcheck // best-effort on exit
		}()
		fmt.Fprintf(os.Stderr, "monitor: serving runner progress on %s\n", mon.Addr())
	}

	wanted := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		wanted[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := wanted["all"]
	want := func(name string) bool {
		if name == "manycore" {
			// Opt-in only: the 256-core runs dwarf the paper's 4-core
			// sweeps and would dominate every -exp all invocation.
			return wanted[name]
		}
		return all || wanted[name]
	}

	type figFn func() (*core.Figure, error)
	figures := []struct {
		name   string
		format string
		fn     figFn
	}{
		{"table2a", "%.1f", r.Table2a},
		{"table2b", "%.3f", r.Table2b},
		{"fig4", "%.2f", r.Figure4},
		{"fig6a", "%.3f", r.Figure6a},
		{"fig6b", "%.3f", r.Figure6b},
		{"fig7a", "%.1f", func() (*core.Figure, error) { return r.Figure7(false) }},
		{"fig7b", "%.1f", func() (*core.Figure, error) { return r.Figure7(true) }},
		{"fig9a", "%.1f", func() (*core.Figure, error) { return r.Figure9(false) }},
		{"fig9b", "%.1f", func() (*core.Figure, error) { return r.Figure9(true) }},
		{"vbfprobes", "%.2f", r.VBFProbes},
		{"energy", "%.2f", r.EnergyFigure},
		{"banking", "%.3f", r.MSHRBankingFigure},
		{"stability", "%.4f", r.StabilityFigure},
		{"stackcap", "%.3f", r.StackCapacityFigure},
		{"thermal", "%.2f", r.ThermalFigure},
		{"ablations", "%.3f", r.Ablations},
		{"manycore", "%.4f", r.ManycoreFigure},
	}

	// Every wanted figure is generated concurrently — each generator
	// pre-enqueues its runs on the shared worker pool, so the pool stays
	// saturated across figures — but results print in declaration order,
	// keeping the output byte-identical to a sequential run.
	type figResult struct {
		fig *core.Figure
		err error
	}
	pending := make([]chan figResult, len(figures))
	for i, f := range figures {
		if !want(f.name) {
			continue
		}
		ch := make(chan figResult, 1)
		pending[i] = ch
		go func(fn figFn) {
			fig, err := fn()
			ch <- figResult{fig, err}
		}(f.fn)
	}

	ran, failed := 0, 0
	if want("table1") {
		fmt.Println("Table 1: baseline quad-core processor parameters")
		fmt.Println(config.Table1())
		ran++
	}
	for i, f := range figures {
		if pending[i] == nil {
			continue
		}
		res := <-pending[i]
		if res.err != nil {
			// One broken experiment (or a cancelled sweep) must not eat
			// the figures whose runs completed: report, keep printing,
			// fail the exit code at the end.
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", f.name, res.err)
			failed++
			ran++
			continue
		}
		if *csvOut {
			fmt.Print(res.fig.CSV())
			fmt.Println()
		} else {
			fmt.Println(res.fig.Render(f.format))
		}
		ran++
	}
	if want("tsv") {
		fmt.Println(floorplan.Report())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no experiment matched %q\n", *expFlag)
		return 2
	}

	if led != nil {
		fmt.Fprintf(os.Stderr, "ledger: %d of %d runs served from %s\n",
			r.Status().LedgerHits, r.Runs(), led.Dir())
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted; completed figures were flushed")
	}
	if failed > 0 {
		// Surface which runs went wrong (the first error per run), then
		// fail the invocation.
		for _, rep := range r.Status().Reports {
			if rep.Err != nil {
				fmt.Fprintf(os.Stderr, "experiments: failed run %s/%s after %.2fs: %v\n",
					rep.Config, rep.Label, rep.WallSeconds, rep.Err)
			}
		}
		fmt.Fprintf(os.Stderr, "experiments: %d of %d experiments failed\n", failed, ran)
		return 1
	}
	return 0
}
