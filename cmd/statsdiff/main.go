// Command statsdiff is the cross-run regression gate: it compares two
// runs metric by metric and prints per-metric deltas. With -threshold
// it fails on any metric whose relative change exceeds the threshold.
//
// Two sources:
//
//   - File mode (two positional arguments): compares the final samples
//     of two telemetry time-series exports (the timeseries.csv a
//     -telemetry-dir run writes) — the run-end cumulative totals.
//   - Ledger mode (-ledger-dir): compares two recorded runs straight
//     from the content-addressed run ledger that stacksim/experiments
//     -ledger-dir populates. -a and -b accept a run ID, a tag name, or
//     "latest"; -b is the baseline. A passing compare can pin run -a
//     under a tag with -pin, blessing it as the next baseline.
//
// Usage:
//
//	statsdiff old/timeseries.csv new/timeseries.csv
//	statsdiff -threshold 0.05 -only '*mc0.*' old.csv new.csv
//	statsdiff -threshold 0.02 -only 'power.energy.*' old.csv new.csv
//	statsdiff -ignore 'power.*,thermal.*' old.csv new.csv
//	statsdiff -all old.csv new.csv
//	statsdiff -ledger-dir runs/ -a latest -b blessed -threshold 0.05
//	statsdiff -ledger-dir runs/ -a latest -b blessed -pin blessed
//
// -only and -ignore take comma-separated path.Match globs over metric
// names ('power.*' matches the whole power family — * spans dots, only
// '/' stops it). -only keeps matching metrics, then -ignore drops
// matching ones; both apply in either mode.
//
// Metrics present in only one run are reported (as added/removed) but
// never count as breaches: growing the instrumentation must not fail
// the gate. A NaN metric always breaches, threshold or not.
//
// Exit status taxonomy (scripted gates depend on it):
//
//	0 — compared clean: every shared metric within the threshold
//	1 — regression: at least one breach (threshold exceeded, or a NaN)
//	2 — usage or I/O error: bad flags, unreadable export, unknown
//	    ledger ref, failed tag pin
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"strconv"
	"strings"

	"stackedsim/internal/ledger"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is main's body behind an exit code with injectable streams,
// so the exit taxonomy is testable without spawning processes.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("statsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threshold = fs.Float64("threshold", 0, "relative change that counts as a breach (0 = report only, never fail)")
		only      = fs.String("only", "", "comma-separated globs; only compare metrics matching one of them")
		ignore    = fs.String("ignore", "", "comma-separated globs; drop metrics matching one of them")
		all       = fs.Bool("all", false, "also print unchanged metrics")
		ledgerDir = fs.String("ledger-dir", "", "compare runs recorded in this ledger instead of telemetry exports")
		aRef      = fs.String("a", "latest", "ledger mode: run under test (run ID, tag, or \"latest\")")
		bRef      = fs.String("b", "", "ledger mode: baseline run (run ID, tag, or \"latest\")")
		pin       = fs.String("pin", "", "ledger mode: after a clean compare, pin run -a under this tag (bless a new baseline)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: statsdiff [flags] <old export> <new export>\n")
		fmt.Fprintf(stderr, "   or: statsdiff -ledger-dir <dir> -a <ref> -b <ref> [flags]\n")
		fmt.Fprintf(stderr, "exports are timeseries.csv files; ledger refs are run IDs, tags, or \"latest\"\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A NaN or infinite threshold compares false against every change,
	// and a negative one reads as report-only: each would turn the gate
	// off without saying so.
	if t := *threshold; t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
		fmt.Fprintf(stderr, "statsdiff: -threshold %g: need a finite number >= 0\n", t)
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "statsdiff: %v\n", err)
		return 2
	}

	keep, err := globFilter(*only, *ignore)
	if err != nil {
		return fatal(err)
	}

	var oldVals, newVals map[string]float64
	var led *ledger.Ledger
	var aID string
	if *ledgerDir != "" {
		if fs.NArg() != 0 {
			fmt.Fprintln(stderr, "statsdiff: -ledger-dir takes runs via -a/-b, not positional exports")
			return 2
		}
		if *bRef == "" {
			fmt.Fprintln(stderr, "statsdiff: ledger mode needs a baseline: -b <run ID, tag, or \"latest\">")
			return 2
		}
		if led, err = ledger.Open(*ledgerDir); err != nil {
			return fatal(err)
		}
		recA, err := led.Get(*aRef)
		if err != nil {
			return fatal(err)
		}
		recB, err := led.Get(*bRef)
		if err != nil {
			return fatal(err)
		}
		aID = recA.Manifest.ID
		newVals, oldVals = recA.Metrics(), recB.Metrics()
		fmt.Fprintf(stdout, "statsdiff: a=%s (%s %s) vs baseline b=%s (%s %s)\n",
			*aRef, recA.Manifest.ID, recA.Manifest.Config, *bRef, recB.Manifest.ID, recB.Manifest.Config)
	} else {
		explicit := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		for _, name := range []string{"a", "b", "pin"} {
			if explicit[name] {
				fmt.Fprintf(stderr, "statsdiff: -%s selects a ledger run; add -ledger-dir <dir>\n", name)
				return 2
			}
		}
		if fs.NArg() != 2 {
			fs.Usage()
			return 2
		}
		if oldVals, err = loadExport(fs.Arg(0)); err != nil {
			return fatal(err)
		}
		if newVals, err = loadExport(fs.Arg(1)); err != nil {
			return fatal(err)
		}
	}
	oldVals = filterVals(oldVals, keep)
	newVals = filterVals(newVals, keep)

	rows, breaches := diff(oldVals, newVals, *threshold)
	for _, r := range rows {
		if !*all && r.kind == diffSame {
			continue
		}
		fmt.Fprintln(stdout, r.line)
	}
	fmt.Fprintf(stdout, "statsdiff: %d metrics compared, %d changed, %d breaches (threshold %g)\n",
		len(rows), changed(rows), breaches, *threshold)
	if breaches > 0 {
		if *pin != "" {
			fmt.Fprintf(stdout, "statsdiff: not pinning %q: the compare breached\n", *pin)
		}
		return 1
	}
	if *pin != "" {
		if err := led.Tag(*pin, aID); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "statsdiff: pinned %s as %q\n", aID, *pin)
	}
	return 0
}

// globFilter compiles -only/-ignore into one predicate over metric
// names. Empty -only keeps everything; -ignore then drops its matches.
// Invalid patterns fail fast (path.ErrBadPattern) rather than silently
// matching nothing.
func globFilter(only, ignore string) (func(string) bool, error) {
	parse := func(spec string) ([]string, error) {
		if spec == "" {
			return nil, nil
		}
		var pats []string
		for _, p := range strings.Split(spec, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				continue
			}
			// Validate now: path.Match only reports a bad pattern when
			// it gets that far through the name, so probe it directly.
			if _, err := path.Match(p, "probe"); err != nil {
				return nil, fmt.Errorf("bad glob %q: %w", p, err)
			}
			pats = append(pats, p)
		}
		return pats, nil
	}
	onlyPats, err := parse(only)
	if err != nil {
		return nil, err
	}
	ignorePats, err := parse(ignore)
	if err != nil {
		return nil, err
	}
	matches := func(pats []string, name string) bool {
		for _, p := range pats {
			if ok, _ := path.Match(p, name); ok {
				return true
			}
		}
		return false
	}
	return func(name string) bool {
		if len(onlyPats) > 0 && !matches(onlyPats, name) {
			return false
		}
		return !matches(ignorePats, name)
	}, nil
}

// filterVals drops metrics the predicate rejects.
func filterVals(vals map[string]float64, keep func(string) bool) map[string]float64 {
	out := make(map[string]float64, len(vals))
	for n, v := range vals {
		if keep(n) {
			out[n] = v
		}
	}
	return out
}

type diffKind int

const (
	diffSame diffKind = iota
	diffChanged
	diffBreach
	diffOnlyOld
	diffOnlyNew
)

type diffRow struct {
	name string
	kind diffKind
	line string
}

func changed(rows []diffRow) int {
	n := 0
	for _, r := range rows {
		if r.kind != diffSame {
			n++
		}
	}
	return n
}

// diff compares the two runs metric by metric on top of ledger.Compare
// (the same engine the monitor's /compare endpoint uses), rendering the
// command's report lines. One semantic adjustment: ledger.Compare
// treats every over-threshold change as a breach, while this command's
// contract is that -threshold 0 means report-only — so in that mode
// only NaNs remain breaches. NaN always breaches: NaN means the export
// (or the metric's computation) is broken, and NaN's non-ordering would
// otherwise let it sail through every comparison.
func diff(oldVals, newVals map[string]float64, threshold float64) (rows []diffRow, breaches int) {
	deltas, breaches := ledger.Compare(newVals, oldVals, threshold)
	for _, d := range deltas {
		nv, ov := d.A, d.B
		switch d.Kind {
		case ledger.DiffOnlyA:
			rows = append(rows, diffRow{d.Name, diffOnlyNew,
				fmt.Sprintf("  + %-32s %14s -> %14g (new metric)", d.Name, "-", nv)})
		case ledger.DiffOnlyB:
			rows = append(rows, diffRow{d.Name, diffOnlyOld,
				fmt.Sprintf("  - %-32s %14g -> %14s (removed)", d.Name, ov, "-")})
		case ledger.DiffSame:
			rows = append(rows, diffRow{d.Name, diffSame,
				fmt.Sprintf("    %-32s %14g (unchanged)", d.Name, ov)})
		default:
			if math.IsNaN(ov) || math.IsNaN(nv) {
				rows = append(rows, diffRow{d.Name, diffBreach,
					fmt.Sprintf("  ! %-32s %14g -> %14g (NaN: export or metric is broken)", d.Name, ov, nv)})
				continue
			}
			kind, mark := diffChanged, " "
			if d.Kind == ledger.DiffBreach && threshold > 0 {
				kind, mark = diffBreach, "!"
			} else if d.Kind == ledger.DiffBreach {
				breaches-- // report-only mode: a non-NaN change never fails
			}
			rows = append(rows, diffRow{d.Name, kind,
				fmt.Sprintf("  %s %-32s %14g -> %14g (%+.2f%%)", mark, d.Name, ov, nv, 100*signedRel(ov, nv))})
		}
	}
	return rows, breaches
}

// signedRel is the signed relative change for display (0 baseline
// renders as ±100%).
func signedRel(ov, nv float64) float64 {
	if ov == 0 {
		if nv > 0 {
			return 1
		}
		if nv < 0 {
			return -1
		}
		return 0
	}
	return (nv - ov) / ov
}

// loadExport reads a telemetry export — the sampler's CSV — and returns
// the final sample's metric values.
func loadExport(path string) (map[string]float64, error) {
	if strings.HasSuffix(path, ".jsonl") {
		return nil, fmt.Errorf("%s: the .jsonl time-series export is gone; pass the timeseries.csv written beside it (the same series)", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("%s: empty export", path)
	}
	header := strings.Split(sc.Text(), ",")
	if len(header) < 1 || header[0] != "cycle" {
		return nil, fmt.Errorf("%s: not a telemetry CSV (header starts %q, want \"cycle\")", path, header[0])
	}
	var last string
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if last == "" {
		return nil, fmt.Errorf("%s: header but no samples (did the run finish?)", path)
	}
	cells := strings.Split(last, ",")
	if len(cells) != len(header) {
		return nil, fmt.Errorf("%s: final row has %d cells, header has %d (truncated write?)", path, len(cells), len(header))
	}
	vals := make(map[string]float64, len(header)-1)
	for i := 1; i < len(header); i++ {
		v, err := strconv.ParseFloat(cells[i], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: metric %s: %w", path, header[i], err)
		}
		vals[header[i]] = v
	}
	return vals, nil
}
