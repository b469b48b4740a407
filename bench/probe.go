package main

import "time"

// The core probe. This benchmark runs in a VM whose physical cores are
// shared with other tenants, and what they take comes in phases that
// last from milliseconds to minutes. Over twenty minutes of identical
// simulator slices, with candidate probes interleaved between them:
//
//   - the slices took anywhere from 25 to 42 ms, and the median of a
//     15 s window wandered by 8–22 % (interquartile) and 50–90 % (range)
//     from window to window; no statistic of the slices alone survives
//     a phase that is longer than the run;
//   - a dependent-chain arithmetic loop held within 2 % throughout, and
//     a real 32 MiB memory stream tracked the slices only loosely, so
//     the cause is neither stolen CPU time nor memory bandwidth;
//   - a loop of independent loads that all hit the L1 — nothing but
//     issue slots — slowed in step with the slices (window-level
//     correlation 0.96–0.98), which is what a busy sibling hyperthread
//     does to code that would otherwise fill the core.
//
// Dividing each slice's time by the probe taken around it brought the
// window-to-window wander down to 2–5 % (interquartile) and 7–14 %
// (range). So host seconds are counted at the core's uncontended
// speed: a slice that took d while the probe read p counts for
// d × probeRef / p. The correction is proportional and blind to what
// the program inflicts on itself (fig4's two workers share a cache),
// which is the program's own cost and stays in. The uncorrected rate is
// printed beside the corrected one.

// probeWords × 8 bytes is a third of the L1 data cache; probePasses
// sizes one probe to ~1.5 ms, short against a 50 ms slice.
const (
	probeWords  = 2048
	probePasses = 2048
)

// probeRef is the probe's reading on an uncontended core of the host
// this benchmark was defined on. Another host rescales every rate by
// one constant, which no comparison of two commits on that host sees.
const probeRef = 1500 * time.Microsecond

var (
	probeBuf  [probeWords]uint64
	probeSink uint64
)

// probe times probePasses sums over the buffer.
func probe() time.Duration {
	t0 := time.Now()
	var sum uint64
	buf := probeBuf[:] // ranging over the array itself would copy it
	for p := 0; p < probePasses; p++ {
		for _, v := range buf {
			sum += v
		}
	}
	probeSink += sum
	return time.Since(t0)
}

// calm converts host time d, measured between the probe readings
// before and after, to time at the core's uncontended speed.
func calm(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*probeRef) / float64(before+after))
}

// medianProbe is the median of n probes, for slices long enough to
// afford a steadier reading at each end.
func medianProbe(n int) time.Duration {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(probe())
	}
	return time.Duration(median(v))
}
