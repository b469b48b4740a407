package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// header says where and how a result was measured. Two results compare
// only when everything but the commit and the start time agrees.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Reps       int    `json:"reps"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

func newHeader(seed int64, reps int) header {
	h := header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Reps: reps, Commit: "unknown", Started: time.Now().UTC().Format(time.RFC3339),
	}
	// `go run` does not stamp the build, so ask git; outside a
	// repository (the acceptance driver's checkout) the commit stays
	// unknown.
	if rev, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
	}
	return h
}

func (h header) String() string {
	return fmt.Sprintf("seed=%d reps=%d nproc=%d GOMAXPROCS=%d %s commit=%s started=%s",
		h.Seed, h.Reps, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.Started)
}

// comparable reports why two results cannot be set side by side.
func (h header) comparable(o header) error {
	a, b := h, o
	a.Commit, a.Started, b.Commit, b.Started = "", "", "", ""
	if a != b {
		return fmt.Errorf("results were not measured alike:\n  %v\n  %v", h, o)
	}
	return nil
}

// workloadResult is one workload's part of a result file. Digest and
// HMIPC are simulated statistics: recorded so a simulator-only change
// can be shown bit-identical, not gated, because a model fix may move
// them.
type workloadResult struct {
	EndToEnd map[string]summary `json:"end_to_end"`
	// RawRate is sim_cycles_per_s without the core-probe correction:
	// what these reps' user saw, neighbours included.
	RawRate  summary `json:"raw_sim_cycles_per_s"`
	PerLayer values  `json:"per_layer,omitempty"`
	Digest   string  `json:"digest"`
	HMIPC    float64 `json:"hmipc"`
}

// result is what a full run writes with -out and -compare reads.
type result struct {
	Header       header                     `json:"header"`
	Workloads    map[string]*workloadResult `json:"workloads"`
	Drives       values                     `json:"layer_drives,omitempty"`
	Observers    values                     `json:"observers,omitempty"`
	OpsAttempted int                        `json:"ops_attempted"`
	OpsFailed    int                        `json:"ops_failed"`
}

func readResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *result) write(path string) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// worsening is how much worse b reads than a, as a share of a:
// positive is worse, whichever direction the metric improves in.
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges one end-to-end metric of one workload. A spread wider
// than the bound leaves the metric unresolved — neither unchanged nor
// regressed — unless every new sample beats every old one.
func verdict(m metricSpec, old, cur summary) string {
	allBetter := old.N > 0 && cur.N > 0
	for _, o := range old.Samples {
		for _, c := range cur.Samples {
			if worsening(m, o, c) >= 0 {
				allBetter = false
			}
		}
	}
	w := worsening(m, old.Median, cur.Median)
	switch {
	case allBetter:
		return "better"
	case math.Max(old.spread(), cur.spread()) > m.Bound:
		return "unresolved"
	case w > m.Bound:
		return "worse"
	case w < -old.spread() && w < 0:
		return "better"
	}
	return "within-bound"
}

// compareResults prints one row per workload and end-to-end metric,
// then the workloads whose simulated digest changed. Per-layer numbers
// get no verdict: they explain a change, they do not judge it.
func compareResults(out io.Writer, spec *benchSpec, old, cur *result) error {
	if err := old.Header.comparable(cur.Header); err != nil {
		return err
	}
	fmt.Fprintf(out, "old: %v\nnew: %v\n", old.Header, cur.Header)
	fmt.Fprintf(out, "%-10s %-18s %-13s %35s %35s %10s %6s  %s\n",
		"workload", "metric", "unit", "old median [q1, q3] n", "new median [q1, q3] n", "new/old", "bound", "verdict")
	var moved []string
	for _, w := range spec.Workloads {
		o, c := old.Workloads[w.Name], cur.Workloads[w.Name]
		if o == nil || c == nil {
			return fmt.Errorf("workload %s is missing from a result", w.Name)
		}
		for _, m := range spec.EndToEnd {
			so, sc := o.EndToEnd[m.Name], c.EndToEnd[m.Name]
			fmt.Fprintf(out, "%-10s %-18s %-13s %35s %35s %10.4f %6.2f  %s\n",
				w.Name, m.Name, m.Unit, quartileString(so), quartileString(sc), sc.Median/so.Median, m.Bound, verdict(m, so, sc))
		}
		if o.Digest != c.Digest {
			moved = append(moved, w.Name)
		}
	}
	sort.Strings(moved)
	fmt.Fprintf(out, "workloads whose digest changed: %v\n", moved)
	return nil
}

func quartileString(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d", s.Median, s.Q1, s.Q3, s.N)
}

// selfcheck compares two timed sets of one binary: the benchmark is
// only usable if a program set against itself stays within every bound.
func selfcheck(out io.Writer, spec *benchSpec, a, b *result) (ok bool) {
	ok = true
	fmt.Fprintf(out, "%-10s %-18s %14s %14s %9s %6s\n", "workload", "metric", "set 1 median", "set 2 median", "differ", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ma, mb := a.Workloads[w.Name].EndToEnd[m.Name].Median, b.Workloads[w.Name].EndToEnd[m.Name].Median
			diff := math.Abs(worsening(m, ma, mb))
			mark := ""
			if diff > m.Bound {
				ok, mark = false, "  EXCEEDS BOUND"
			}
			fmt.Fprintf(out, "%-10s %-18s %14.6g %14.6g %8.2f%% %6.2f%s\n", w.Name, m.Name, ma, mb, 100*diff, m.Bound, mark)
		}
	}
	return ok
}
