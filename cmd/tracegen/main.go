// Command tracegen records a benchmark's synthetic μop stream to a
// binary trace, or inspects an existing trace.
//
// Usage:
//
//	tracegen -bench mcf -n 1000000 -o mcf.trace
//	tracegen -inspect mcf.trace
//
// A recorded trace replays through `stacksim -traces` cycle-exact to the
// generator-driven run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"stackedsim/internal/cpu"
	"stackedsim/internal/trace"
	"stackedsim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main's body behind an exit code with injectable streams: 0 on
// success, 1 when a trace could not be read or written, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench   = fs.String("bench", "", "benchmark to record (see stacksim -list)")
		n       = fs.Uint64("n", 1_000_000, "μops to record")
		out     = fs.String("o", "", "output trace file")
		seed    = fs.Int64("seed", 1, "generator seed")
		inspect = fs.String("inspect", "", "print statistics of an existing trace")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 1
	}

	if *inspect != "" {
		f, err := os.Open(*inspect)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			return fail(err)
		}
		inspectTrace(stdout, *inspect, r, r.Len())
		return 0
	}

	if *bench == "" || *out == "" {
		fmt.Fprintln(stderr, "tracegen: need -bench and -o (or -inspect)")
		return 2
	}
	spec, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(stderr, "tracegen: unknown benchmark %q\n", *bench)
		return 2
	}
	f, err := os.Create(*out)
	if err != nil {
		return fail(err)
	}
	if err := trace.Record(f, workload.NewGenerator(spec, *seed), *n); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "recorded %d μops of %s to %s\n", *n, *bench, *out)
	return 0
}

// inspectTrace prints what the next n μops of src are made of.
func inspectTrace(w io.Writer, name string, src cpu.UOpSource, n int) {
	var memOps, stores, deps, mispred uint64
	lines := make(map[uint64]struct{})
	for i := 0; i < n; i++ {
		op := src.Next()
		if op.Mem {
			memOps++
			lines[op.VAddr/64] = struct{}{}
			if op.Store {
				stores++
			}
			if op.DependsOnPrev {
				deps++
			}
		}
		if op.Mispredict {
			mispred++
		}
	}
	total := uint64(n)
	fmt.Fprintf(w, "%s: %d μops\n", name, total)
	fmt.Fprintf(w, "  memory:     %d (%.1f%%)\n", memOps, pct(memOps, total))
	fmt.Fprintf(w, "  stores:     %d (%.1f%% of mem)\n", stores, pct(stores, memOps))
	fmt.Fprintf(w, "  dependent:  %d (%.1f%% of mem)\n", deps, pct(deps, memOps))
	fmt.Fprintf(w, "  mispredict: %d (%.2f%%)\n", mispred, pct(mispred, total))
	fmt.Fprintf(w, "  footprint:  %.2f MB (%d distinct 64B lines)\n",
		float64(len(lines))*64/(1<<20), len(lines))
}

// pct is a over b in percent, zero of nothing being zero.
func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
