// Package stats provides the metric aggregation used by the evaluation:
// harmonic-mean IPC for multi-programmed mixes, geometric-mean speedups
// across workload groups, and general counters/histograms.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive inputs and empty
// slices return 0; the paper reports geometric-mean speedups across
// workload groups (GM(H,VH), GM(all)).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// HarmonicMean returns the harmonic mean of xs. The paper's per-workload
// "HMIPC" is the harmonic mean across the four programs of a mix, which
// rewards balanced progress and punishes starving any one program.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum
}

// Speedup returns after/before, guarding against a zero baseline.
func Speedup(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return after / before
}

// Ratio returns num/den as a float, 0 when den is 0.
func Ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Histogram is a fixed-bucket histogram over small non-negative integers
// (e.g. MSHR probe counts). Values beyond the last bucket accumulate in
// the overflow bucket.
type Histogram struct {
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      uint64
}

// NewHistogram returns a histogram with buckets for values 0..n-1.
func NewHistogram(n int) *Histogram {
	if n < 1 {
		n = 1
	}
	return &Histogram{buckets: make([]uint64, n)}
}

// Add records one observation of v (negative values clamp to 0).
func (h *Histogram) Add(v int) { h.AddN(v, 1) }

// AddN records n observations of v.
func (h *Histogram) AddN(v int, n uint64) {
	if v < 0 {
		v = 0
	}
	if v < len(h.buckets) {
		h.buckets[v] += n
	} else {
		h.overflow += n
	}
	h.count += n
	h.sum += uint64(v) * n
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum reports the running sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// MeanValue reports the arithmetic mean of the observations.
func (h *Histogram) MeanValue() float64 { return Ratio(h.sum, h.count) }

// Bucket reports the count for value v (overflow excluded).
func (h *Histogram) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// Overflow reports observations beyond the bucket range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Percentile reports the smallest value v such that at least p (0..1) of
// observations are <= v. Overflow observations count as len(buckets).
// An empty histogram reports 0; p is clamped to [0,1] and a NaN p is
// treated as 0, so the result is always a finite bucket value.
func (h *Histogram) Percentile(p float64) int {
	if h.count == 0 {
		return 0
	}
	if math.IsNaN(p) || p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(h.count)))
	var cum uint64
	for v, c := range h.buckets {
		cum += c
		if cum >= target {
			return v
		}
	}
	return len(h.buckets)
}

// Quantiles reports Percentile for each of ps, in order.
func (h *Histogram) Quantiles(ps ...float64) []int {
	qs := make([]int, len(ps))
	for i, p := range ps {
		qs[i] = h.Percentile(p)
	}
	return qs
}

// Summary renders the distribution one-liner used by telemetry exports:
// count, mean, and the p50/p90/p99 quantiles ("empty" with no data).
func (h *Histogram) Summary() string {
	if h.count == 0 {
		return "empty"
	}
	qs := h.Quantiles(0.50, 0.90, 0.99)
	return fmt.Sprintf("count=%d mean=%.2f p50=%d p90=%d p99=%d",
		h.count, h.MeanValue(), qs[0], qs[1], qs[2])
}

// Table is a tiny fixed-width text table builder used to print the
// paper's figure/table rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row. Cells beyond the header width are kept.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddFloats appends a row with a label and formatted float cells.
func (t *Table) AddFloats(label string, format string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(format, v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
