// Command bench is the stackedsim benchmark: simulator speed and paper
// fidelity, end to end and per layer, on the five workloads
// BENCHMARK.json names. See README.md.
//
//	go run -C bench . -seed 1                  every workload, timed then traced
//	go run -C bench . -selfcheck               two timed sets of this binary, compared
//	go run -C bench . -compare old.json new.json
//	go run -C bench . --workload sat4 --seed 7 --seconds 15 --trace 0
//
// The last form is the acceptance driver's: one workload, one JSON
// object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// logOut takes progress and failures; results go to standard output.
var logOut io.Writer = os.Stderr

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "run only this workload and print one JSON object (acceptance-driver mode)")
	seed := flag.Int64("seed", 1, "workload seed, written to every cfg.Seed")
	seconds := flag.Float64("seconds", 15, "with -workload: how long to measure")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
	traceOut := flag.String("trace-out", "", "write the traced runs' spans to this file")
	out := flag.String("out", "", "write the full run's result to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	self := flag.Bool("selfcheck", false, "run two timed sets and fail if they differ by more than a bound")
	flag.Parse()

	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		old, err := readResult(flag.Arg(0))
		if err != nil {
			return err
		}
		cur, err := readResult(flag.Arg(1))
		if err != nil {
			return err
		}
		return compareResults(os.Stdout, spec, old, cur)
	}
	h := &harness{spec: spec, suite: workloads, seed: *seed, size: fullSize, log: newSpanLog()}
	if *traceOut != "" {
		defer func() {
			if err := h.log.write(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}()
	}
	switch {
	case *workload != "":
		h.size = driverSize(*seconds)
		return h.driverRun(*workload, *trace == 1)
	case *self:
		return h.selfcheckRun()
	}
	return h.fullRun(*out)
}

// driverRun is one acceptance-driver run: a timed run's end-to-end
// metrics or a traced run's per-layer metrics, as one JSON object.
func (h *harness) driverRun(name string, traced bool) error {
	w := h.workload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	got, decl := values{}, h.spec.EndToEnd
	if traced {
		decl = h.spec.PerLayer
		if plain, ok := h.runRep(w, nil); ok {
			got.merge(h.traceWorkload(w, &plain, plain.runWall()))
			got.merge(runDrives(h.seed, h.size.driveFor))
			got.merge(h.observerCost())
		}
	} else {
		got = medians(h.timedSets([]*benchWorkload{w})[0].endToEnd(h.spec))
	}
	if err := h.err(); err != nil {
		return err
	}
	if err := conform(decl, got); err != nil {
		return err
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	report := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, h.attempted, 0, map[string]metric{}}
	for _, m := range decl {
		report.Metrics[m.Name] = metric{got[m.Name], m.Unit}
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timedResult runs the timed protocol on the whole suite.
func (h *harness) timedResult() (*result, []*timedSet) {
	ws := make([]*benchWorkload, len(h.suite))
	for i := range h.suite {
		ws[i] = &h.suite[i]
	}
	res := &result{Header: newHeader(h.seed, h.size.reps), Workloads: map[string]*workloadResult{}}
	sets := h.timedSets(ws)
	for _, s := range sets {
		wr := &workloadResult{EndToEnd: s.endToEnd(h.spec)}
		if len(s.reps) > 0 {
			wr.Digest, wr.HMIPC = fmt.Sprintf("%016x", s.reps[0].digest), s.reps[0].counters["cpu.hmipc"]
		}
		var raw []float64
		for i := range s.reps {
			raw = append(raw, s.reps[i].rawRate())
		}
		wr.RawRate = summarize("cycles/s", raw)
		res.Workloads[s.w.name] = wr
	}
	return res, sets
}

// fullRun is the stand-alone benchmark: the timed sets, then the traced
// run of every workload, the layer drives and the observer costs, every
// metric printed by name.
func (h *harness) fullRun(out string) error {
	start := time.Now()
	res, sets := h.timedResult()
	fmt.Println("stackedsim bench:", res.Header)
	printEndToEnd(os.Stdout, h.spec, res)
	for _, s := range sets {
		if h.failed > 0 {
			break
		}
		var walls []float64
		for i := range s.reps {
			walls = append(walls, float64(s.reps[i].runWall()))
		}
		plain := &s.reps[len(s.reps)-1]
		layer := h.traceWorkload(s.w, plain, time.Duration(median(walls)))
		res.Workloads[s.w.name].PerLayer = layer
		printValues(os.Stdout, "per layer: "+s.w.name+" (traced run; counters of an untraced rep)", h.spec, layer)
	}
	if h.failed == 0 {
		res.Drives = runDrives(h.seed, h.size.driveFor)
		printValues(os.Stdout, "per layer: drives (each layer's public API alone)", h.spec, res.Drives)
		res.Observers = h.observerCost()
		printValues(os.Stdout, "per layer: observer cost on the sat4 machine (wall with / wall without)", h.spec, res.Observers)
	}
	res.OpsAttempted, res.OpsFailed = h.attempted, h.failed
	fmt.Printf("\nops_attempted=%d ops_failed=%d wall=%.0fs\n", h.attempted, h.failed, time.Since(start).Seconds())
	if out != "" {
		if err := res.write(out); err != nil {
			return err
		}
	}
	if err := h.err(); err != nil {
		return err
	}
	for _, w := range res.Workloads {
		all := values{}
		all.merge(res.Drives)
		all.merge(res.Observers)
		all.merge(w.PerLayer)
		if err := conform(h.spec.PerLayer, all); err != nil {
			return err
		}
	}
	return nil
}

func (h *harness) selfcheckRun() error {
	a, _ := h.timedResult()
	b, _ := h.timedResult()
	fmt.Println("stackedsim bench selfcheck:", a.Header)
	ok := selfcheck(os.Stdout, h.spec, a, b)
	fmt.Printf("ops_attempted=%d ops_failed=%d\n", h.attempted, h.failed)
	if err := h.err(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("two sets of the same binary differ by more than a bound")
	}
	fmt.Println("selfcheck passed: every end-to-end metric agrees within its bound")
	return nil
}

func printEndToEnd(out io.Writer, spec *benchSpec, res *result) {
	fmt.Fprintf(out, "\n== end to end (untraced, observers off; value = median over n) ==\n")
	fmt.Fprintf(out, "%-10s %-18s %-13s %3s %13s %13s %13s %7s %6s\n", "workload", "metric", "unit", "n", "q1", "median", "q3", "spread", "bound")
	for _, w := range spec.Workloads {
		wr := res.Workloads[w.Name]
		for _, m := range spec.EndToEnd {
			s := wr.EndToEnd[m.Name]
			fmt.Fprintf(out, "%-10s %-18s %-13s %3d %13.6g %13.6g %13.6g %6.2f%% %6.2f\n",
				w.Name, m.Name, m.Unit, s.N, s.Q1, s.Median, s.Q3, 100*s.spread(), m.Bound)
		}
		fmt.Fprintf(out, "%-10s %-18s %-13s %3d %13.6g %13.6g %13.6g %6.2f%%  (no probe correction; not gated)\n",
			w.Name, "raw cycles/s", wr.RawRate.Unit, wr.RawRate.N, wr.RawRate.Q1, wr.RawRate.Median, wr.RawRate.Q3, 100*wr.RawRate.spread())
		fmt.Fprintf(out, "%-10s digest=%s hmipc=%.6g (simulated; recorded, not gated)\n", w.Name, wr.Digest, wr.HMIPC)
	}
}

// printValues prints the declared per-layer metrics that v holds, in
// BENCHMARK.json's order.
func printValues(out io.Writer, title string, spec *benchSpec, v values) {
	fmt.Fprintf(out, "\n== %s ==\n", title)
	for _, m := range spec.PerLayer {
		if x, ok := v[m.Name]; ok {
			fmt.Fprintf(out, "%-28s %-12s %.6g\n", m.Name, m.Unit, x)
		}
	}
}
