// Command experiments regenerates every table and figure of the paper's
// evaluation. Each experiment prints the same rows/series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp fig4,fig6a -measure 1000000 -v
//	experiments -exp all -j 8
//	experiments -exp all -ledger-dir runs/
//
// Runs fan out over a worker pool (-j, default GOMAXPROCS); output is
// byte-identical to -j 1 because every simulation is deterministic in
// isolation and figures print in a fixed order.
//
// With -ledger-dir every completed run lands in the content-addressed
// run ledger and already-recorded (config, workload, seed) runs are
// served from it without simulating, so re-generating a figure after an
// unrelated change is nearly free; cmd/statsdiff -ledger-dir compares
// and pins what a sweep recorded. A sweep's progress is -v and the
// closing "ledger: N of M" and failed-run lines; -cpuprofile and
// -memprofile profile it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"

	"stackedsim/internal/config"
	"stackedsim/internal/core"
	"stackedsim/internal/ledger"
	"stackedsim/internal/powerthermal"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body behind an exit code with injectable streams: 0 on
// success, 1 when an experiment failed or the sweep was interrupted, 2
// on a usage error. Nothing below main calls os.Exit, so the deferred
// cleanups (the profile flushes) run on every path
// and the command is testable in-process; the result is named so that
// the deferred heap-profile write can fail the invocation.
func run(args []string, stdout, stderr io.Writer) (code int) {
	// core.Figures is the only list of figures; table1 and tsv print
	// static tables around them.
	names := []string{"all", "table1"}
	for _, f := range core.Figures {
		names = append(names, f.Name)
	}
	names = append(names, "tsv")

	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag = fs.String("exp", "all", "comma-separated experiments: "+strings.Join(names, ",")+" (all leaves out manycore)")
		warmup  = fs.Int64("warmup", 200_000, "warmup cycles per run")
		measure = fs.Int64("measure", 600_000, "measured cycles per run")
		verbose = fs.Bool("v", false, "print per-run progress")
		csvOut  = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jobs    = fs.Int("j", 0, "concurrent simulations (0 = GOMAXPROCS)")
		ledDir  = fs.String("ledger-dir", "", "content-addressed run ledger: record completed runs here and serve known runs from it without re-simulating")
		runTmo  = fs.Duration("run-timeout", 0, "per-simulation wall-time limit (0 = none); an over-budget run fails alone")

		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "experiments: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}

	// Reject flag misuse that would otherwise be a silent no-op or
	// nonsense, before any work starts (exit 2, like cmd/stacksim).
	if *jobs < 0 {
		return usage("-j must be >= 0 (0 = GOMAXPROCS)")
	}
	if *runTmo < 0 {
		return usage("-run-timeout must be >= 0 (0 = no limit)")
	}
	wanted := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		e = strings.TrimSpace(strings.ToLower(e))
		if e == "" {
			continue
		}
		if !slices.Contains(names, e) {
			return usage("unknown experiment %q (valid: %s)", e, strings.Join(names, ","))
		}
		wanted[e] = true
	}
	if len(wanted) == 0 {
		return usage("-exp selects no experiment (valid: %s)", strings.Join(names, ","))
	}
	want := func(name string) bool {
		if name == "manycore" {
			// Opt-in only: the 256-core runs dwarf the paper's 4-core
			// sweeps and would dominate every -exp all invocation.
			return wanted[name]
		}
		return wanted["all"] || wanted[name]
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				code = max(code, fail(err))
			}
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
	if *verbose {
		r.Progress = stderr
	}
	var led *ledger.Ledger
	if *ledDir != "" {
		var err error
		if led, err = ledger.Open(*ledDir); err != nil {
			return fail(err)
		}
		r.Ledger = led
		r.Experiment = *expFlag
		r.GitRevision = ledger.GitDescribe()
	}

	// Every wanted figure is generated concurrently — each generator
	// enqueues its whole run set on the shared worker pool before its
	// first wait, so the pool stays saturated across figures — but
	// results print in registry order, keeping the output byte-identical
	// to a sequential run.
	type figResult struct {
		fig *core.Figure
		err error
	}
	pending := make([]chan figResult, len(core.Figures))
	for i, f := range core.Figures {
		if !want(f.Name) {
			continue
		}
		ch := make(chan figResult, 1)
		pending[i] = ch
		go func() {
			fig, err := f.Generate(r)
			ch <- figResult{fig, err}
		}()
	}

	ran, failed := 0, 0
	if want("table1") {
		fmt.Fprintln(stdout, "Table 1: baseline quad-core processor parameters")
		fmt.Fprintln(stdout, config.Table1())
		ran++
	}
	for i, f := range core.Figures {
		if pending[i] == nil {
			continue
		}
		ran++
		res := <-pending[i]
		if res.err != nil {
			// One broken experiment (or a cancelled sweep) must not eat
			// the figures whose runs completed: report, keep printing,
			// fail the exit code at the end.
			fmt.Fprintf(stderr, "experiments: %s: %v\n", f.Name, res.err)
			failed++
		} else if *csvOut {
			fmt.Fprintln(stdout, res.fig.CSV())
		} else {
			fmt.Fprintln(stdout, res.fig.Render(f.Format))
		}
	}
	if want("tsv") {
		fmt.Fprintln(stdout, powerthermal.PaperReport())
		ran++
	}

	if led != nil {
		fmt.Fprintf(stderr, "ledger: %d of %d runs served from %s\n",
			r.Status().LedgerHits, r.Runs(), led.Dir())
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "experiments: interrupted; completed figures were flushed")
	}
	if failed > 0 {
		// Surface which runs went wrong (the first error per run), then
		// fail the invocation.
		for _, rep := range r.Status().Reports {
			if rep.Err != nil {
				fmt.Fprintf(stderr, "experiments: failed run %s/%s after %.2fs: %v\n",
					rep.Config, rep.Label, rep.WallSeconds, rep.Err)
			}
		}
		fmt.Fprintf(stderr, "experiments: %d of %d experiments failed\n", failed, ran)
		return 1
	}
	return 0
}
