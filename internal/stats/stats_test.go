package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !approx(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
}

func TestGeoMean(t *testing.T) {
	if !approx(GeoMean([]float64{1, 4}), 2) {
		t.Fatalf("GeoMean(1,4) = %v, want 2", GeoMean([]float64{1, 4}))
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Fatal("GeoMean with zero should be 0")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) != 0")
	}
}

func TestHarmonicMean(t *testing.T) {
	// HM of 1 and 1/3 = 2 / (1 + 3) = 0.5.
	if !approx(HarmonicMean([]float64{1, 1.0 / 3}), 0.5) {
		t.Fatalf("HarmonicMean = %v, want 0.5", HarmonicMean([]float64{1, 1.0 / 3}))
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Fatal("HarmonicMean with zero should be 0")
	}
}

func TestMeanInequalityProperty(t *testing.T) {
	// Property: HM <= GM <= AM for positive inputs.
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		hm, gm, am := HarmonicMean(xs), GeoMean(xs), Mean(xs)
		return hm <= gm+1e-9 && gm <= am+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupAndRatios(t *testing.T) {
	if !approx(Speedup(2, 3), 1.5) {
		t.Fatal("Speedup wrong")
	}
	if Speedup(0, 3) != 0 {
		t.Fatal("Speedup zero baseline")
	}
	if !approx(Ratio(1, 4), 0.25) {
		t.Fatal("Ratio wrong")
	}
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio zero denominator")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 2, 9, -3} {
		h.Add(v)
	}
	if h.Count() != 6 {
		t.Fatalf("Count = %d, want 6", h.Count())
	}
	if h.Bucket(1) != 2 {
		t.Fatalf("Bucket(1) = %d, want 2", h.Bucket(1))
	}
	if h.Bucket(0) != 2 { // includes clamped -3
		t.Fatalf("Bucket(0) = %d, want 2", h.Bucket(0))
	}
	if h.Overflow() != 1 {
		t.Fatalf("Overflow = %d, want 1", h.Overflow())
	}
	if h.Bucket(-1) != 0 || h.Bucket(100) != 0 {
		t.Fatal("out-of-range Bucket should be 0")
	}
	// mean = (0+1+1+2+9+0)/6
	if !approx(h.MeanValue(), 13.0/6) {
		t.Fatalf("MeanValue = %v", h.MeanValue())
	}
}

func TestHistogramPercentile(t *testing.T) {
	h := NewHistogram(10)
	for v := 0; v < 10; v++ {
		h.Add(v)
	}
	if got := h.Percentile(0.5); got != 4 {
		t.Fatalf("P50 = %d, want 4", got)
	}
	if got := h.Percentile(1.0); got != 9 {
		t.Fatalf("P100 = %d, want 9", got)
	}
	empty := NewHistogram(4)
	if empty.Percentile(0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestHistogramMinBuckets(t *testing.T) {
	h := NewHistogram(0)
	h.Add(0)
	if h.Bucket(0) != 1 {
		t.Fatal("NewHistogram(0) should still have one bucket")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("workload", "2D", "3D")
	tb.AddRow("H1", "1.00", "1.35")
	tb.AddFloats("GM", "%.2f", 1.0, 1.27)
	out := tb.String()
	if !strings.Contains(out, "workload") || !strings.Contains(out, "1.35") || !strings.Contains(out, "1.27") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	empty := NewHistogram(8)
	for _, p := range []float64{0, 0.5, 1, -3, 7, math.NaN()} {
		if got := empty.Percentile(p); got != 0 {
			t.Fatalf("empty histogram Percentile(%v) = %d, want 0", p, got)
		}
	}
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 2, 9} { // 9 overflows
		h.Add(v)
	}
	if got := h.Percentile(math.NaN()); got != 0 {
		t.Fatalf("Percentile(NaN) = %d, want 0 (clamped)", got)
	}
	if got := h.Percentile(-1); got != 0 {
		t.Fatalf("Percentile(-1) = %d, want 0 (clamped)", got)
	}
	if got := h.Percentile(99); got != 4 {
		t.Fatalf("Percentile(99) = %d, want overflow bucket 4 (clamped to 1)", got)
	}
	if got := h.Percentile(0.5); got != 1 {
		t.Fatalf("Percentile(0.5) = %d, want 1", got)
	}
}

func TestRatioAndMeanNeverNaN(t *testing.T) {
	if got := Ratio(0, 0); got != 0 || math.IsNaN(got) {
		t.Fatalf("Ratio(0,0) = %v, want 0", got)
	}
	if got := Ratio(5, 0); got != 0 {
		t.Fatalf("Ratio(5,0) = %v, want 0", got)
	}
	empty := NewHistogram(4)
	if got := empty.MeanValue(); got != 0 || math.IsNaN(got) {
		t.Fatalf("empty MeanValue = %v, want 0", got)
	}
}

func TestQuantilesAndSummary(t *testing.T) {
	h := NewHistogram(16)
	for v := 0; v < 10; v++ { // one observation each of 0..9
		h.Add(v)
	}
	qs := h.Quantiles(0.50, 0.90, 0.99)
	if len(qs) != 3 || qs[0] != 4 || qs[1] != 8 || qs[2] != 9 {
		t.Fatalf("Quantiles = %v, want [4 8 9]", qs)
	}
	s := h.Summary()
	for _, part := range []string{"count=10", "mean=4.50", "p50=4", "p90=8", "p99=9"} {
		if !strings.Contains(s, part) {
			t.Fatalf("Summary %q missing %q", s, part)
		}
	}
	if got := NewHistogram(4).Summary(); got != "empty" {
		t.Fatalf("empty Summary = %q", got)
	}
	if qs := NewHistogram(4).Quantiles(); len(qs) != 0 {
		t.Fatalf("Quantiles() = %v, want empty", qs)
	}
}
