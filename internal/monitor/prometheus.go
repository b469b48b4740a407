// Prometheus text exposition (format version 0.0.4) rendered from a
// monitor snapshot. The registry's dot-separated metric names map to
// Prometheus names by prefixing "stacksim_" and replacing every
// character outside [a-zA-Z0-9_] with '_'; output is sorted by the
// rendered name, so it is deterministic regardless of registration
// order and stable across runs (golden-tested).
package monitor

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"stackedsim/internal/telemetry"
)

// promName converts a registry metric name to a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("stacksim_") + len(name))
	b.WriteString("stacksim_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promValue renders a sample value: integral floats without an
// exponent, everything else via %g (Prometheus accepts both).
func promValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePrometheus renders the snapshot as Prometheus exposition text.
func writePrometheus(w io.Writer, snap *snapshot) {
	type line struct {
		name string
		typ  string
		body string
	}
	var lines []line

	lines = append(lines, line{
		name: "stacksim_cycle",
		typ:  "gauge",
		body: fmt.Sprintf("stacksim_cycle %d\n", int64(snap.cycle)),
	})
	for _, sc := range snap.scalars {
		typ := "gauge"
		if sc.kind == telemetry.KindCounter {
			typ = "counter"
		}
		n := promName(sc.name)
		lines = append(lines, line{name: n, typ: typ, body: fmt.Sprintf("%s %s\n", n, promValue(sc.v))})
	}
	for _, d := range snap.dists {
		n := promName(d.name)
		var b strings.Builder
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %d\n", n, d.p50)
		fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %d\n", n, d.p90)
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %d\n", n, d.p99)
		fmt.Fprintf(&b, "%s_sum %d\n", n, d.sum)
		fmt.Fprintf(&b, "%s_count %d\n", n, d.count)
		lines = append(lines, line{name: n, typ: "summary", body: b.String()})
	}
	sort.SliceStable(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		fmt.Fprintf(w, "# TYPE %s %s\n%s", l.name, l.typ, l.body)
	}
}
