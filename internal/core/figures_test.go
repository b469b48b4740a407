package core

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stackedsim/internal/config"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyRunner exercises the figure generators end to end with windows too
// small for meaningful numbers but large enough for every code path.
func tinyRunner() *Runner {
	return NewRunner(5_000, 15_000)
}

// figureChecks are the per-figure properties a golden file does not
// state: it pins what the values are, not which of them must agree.
var figureChecks = map[string]func(*testing.T, *Figure){
	"fig4": func(t *testing.T, f *Figure) {
		// The 2D column is the baseline: all ones.
		for _, row := range f.Rows {
			if row.Values[0] != 1 {
				t.Errorf("row %s baseline = %v", row.Label, row.Values[0])
			}
		}
	},
	"fig9a": func(t *testing.T, f *Figure) {
		// Column labels are config names with the base prefix stripped.
		if f.Columns[1] != "8xMSHR-vbf" {
			t.Errorf("fig9 column = %q", f.Columns[1])
		}
	},
	"banking": func(t *testing.T, f *Figure) {
		// 1 MC: banked and unified are the same machine.
		if v := f.Rows[0].Values; v[0] != v[1] {
			t.Errorf("1MC banked (%v) != unified (%v)", v[0], v[1])
		}
	},
}

// TestFiguresGolden generates every registered figure at a reduced
// window and compares its rendered table and CSV, byte for byte, with
// testdata/<name>.golden (rewrite with -update, only for a model change
// that moves figures on purpose): the files are what "figure output
// unchanged" means to a refactor of the generators or the run path.
func TestFiguresGolden(t *testing.T) {
	r := tinyRunner()
	for _, fig := range Figures {
		t.Run(fig.Name, func(t *testing.T) {
			runner := r
			switch fig.Name {
			case "manycore":
				// 256-core machines: a shorter window keeps this in seconds.
				runner = NewRunner(2_000, 6_000)
			case "stability":
				if testing.Short() {
					t.Skip("stability figure sweeps real windows")
				}
			}
			f, err := fig.Generate(runner)
			if err != nil {
				t.Fatal(err)
			}
			got := f.Render(fig.Format) + f.CSV()
			path := filepath.Join("testdata", fig.Name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s:\n%s\nwant:\n%s", fig.Name, path, got, want)
			}
			if check := figureChecks[fig.Name]; check != nil {
				check(t, f)
			}
		})
	}
}

func TestRunnerProgressWriter(t *testing.T) {
	r := tinyRunner()
	var buf bytes.Buffer
	r.Progress = &buf
	cfg := config.Fast3D()
	if _, err := r.MixMetrics(cfg, "M1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "M1") {
		t.Fatalf("progress output %q missing mix name", buf.String())
	}
	// Memoized second call must not print again.
	n := buf.Len()
	if _, err := r.MixMetrics(cfg, "M1"); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != n {
		t.Fatal("memoized run printed progress")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if got := coefficientOfVariation([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("CV of constants = %v", got)
	}
	if got := coefficientOfVariation(nil); got != 0 {
		t.Fatalf("CV of nil = %v", got)
	}
	got := coefficientOfVariation([]float64{1, 3})
	// mean 2, var ((1)^2+(1)^2)/1 = 2, sd = 1.414..., cv = 0.707...
	if got < 0.70 || got > 0.71 {
		t.Fatalf("CV = %v, want ~0.707", got)
	}
}

// TestFigureEnqueuesBeforeCollecting pins the cell contract: by a
// figure's first wait its whole run set is in the pool. On a cancelled
// context every run fails at once, so the generator returns from that
// first wait, and the memo then holds every key the figure named (the
// stability figure's window sweep is keyed in its child runners; the
// parent holds the seed sweep). Collecting an organization before
// enqueueing the next one — as the banking and vbfprobes figures did —
// leaves the count short: banking had 18 of its 42 keys.
func TestFigureEnqueuesBeforeCollecting(t *testing.T) {
	keys := map[string]int{
		"table2a": 28, "table2b": 12, "fig4": 48, "fig6a": 108, "fig6b": 108,
		"fig7a": 60, "fig7b": 60, "fig9a": 60, "fig9b": 60, "vbfprobes": 12,
		"energy": 24, "banking": 42, "stability": 9, "stackcap": 24,
		"thermal": 6, "ablations": 108, "manycore": 27,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fig := range Figures {
		r := tinyRunner()
		r.Ctx = ctx
		if _, err := fig.Generate(r); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s on a cancelled runner: %v", fig.Name, err)
		}
		r.mu.Lock()
		got := len(r.memo)
		r.mu.Unlock()
		if got != keys[fig.Name] {
			t.Errorf("%s: %d runs enqueued at its first wait, want its whole run set of %d", fig.Name, got, keys[fig.Name])
		}
	}
}
