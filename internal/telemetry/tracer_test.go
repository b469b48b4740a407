package telemetry

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildLifecycleTrace emits the canonical sampled miss the attribution
// collector draws: an l2.miss span on a core lane tiled by its stage
// spans, MSHR alloc and fill instants, the MC enqueue and burst, and
// the rank's activate and array access — plus a second miss's array
// access overlapping the first on the same rank, which Lane moves to an
// overflow thread.
func buildLifecycleTrace() *Tracer {
	tr := NewTracer(1)
	miss := `{"miss":1}`
	core0 := tr.Lane("cores", "core0", 100, 163)
	mc0 := tr.Track("mcs", "mc0")
	rank0 := tr.Track("dram", "mc0.rank0")

	tr.Complete(core0, "l2.miss", 100, 163, miss)
	tr.Instant(core0, "mshr.alloc", 102, miss)
	tr.Complete(core0, "mshr", 100, 112, miss)
	tr.Complete(core0, "queue", 112, 120, miss)
	tr.Complete(core0, "dram", 120, 155, miss)
	tr.Complete(core0, "bus", 155, 163, miss)
	tr.Instant(core0, "fill", 163, miss)
	tr.Instant(mc0, "mrq.enqueue", 112, miss)
	tr.Complete(tr.Lane("mcs", "mc0", 155, 163), "burst", 155, 163, miss)
	tr.Instant(rank0, "activate", 120, miss)
	tr.Complete(tr.Lane("dram", "mc0.rank0", 120, 155), "dram.access", 120, 155, miss)
	tr.Complete(tr.Lane("dram", "mc0.rank0", 130, 150), "dram.access", 130, 150, `{"miss":2}`)
	return tr
}

// TestTraceGolden pins the exact Chrome trace_event JSON shape; a
// formatting regression would silently break chrome://tracing and
// Perfetto imports. Regenerate with `go test ./internal/telemetry
// -run TraceGolden -update` after an intentional change.
func TestTraceGolden(t *testing.T) {
	var b strings.Builder
	if err := buildLifecycleTrace().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("trace JSON diverged from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceJSONShape checks the structural contract the viewers rely
// on: a traceEvents array whose records carry name/ph/pid/tid, complete
// events with a duration, no two spans on one thread that only partly
// overlap, and metadata naming every process/thread.
func TestTraceJSONShape(t *testing.T) {
	var b strings.Builder
	if err := buildLifecycleTrace().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			TS   *int64          `json:"ts"`
			Dur  *int64          `json:"dur"`
			S    string          `json:"s"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	type span struct{ start, end int64 }
	spans := map[[2]int][]span{}
	var metas, instants int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			if len(e.Args) == 0 {
				t.Fatalf("metadata event %q without args", e.Name)
			}
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("complete event %q without a duration", e.Name)
			}
			spans[[2]int{e.Pid, e.Tid}] = append(spans[[2]int{e.Pid, e.Tid}], span{*e.TS, *e.TS + *e.Dur})
		case "i":
			instants++
			if e.S != "t" {
				t.Fatalf("instant %q missing thread scope", e.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
		if e.Ph != "M" && e.TS == nil {
			t.Fatalf("event %q without ts", e.Name)
		}
	}
	for key, ss := range spans {
		for i, a := range ss {
			for _, c := range ss[i+1:] {
				nested := (a.start <= c.start && c.end <= a.end) || (c.start <= a.start && a.end <= c.end)
				if !nested && a.start < c.end && c.start < a.end {
					t.Fatalf("track %v holds partly overlapping spans %v and %v", key, a, c)
				}
			}
		}
	}
	if metas != 7 { // 3 process_name + 4 thread_name (mc0.rank0 #2 included)
		t.Fatalf("%d metadata events, want 7", metas)
	}
	if instants != 4 {
		t.Fatalf("%d instants, want 4", instants)
	}
}
