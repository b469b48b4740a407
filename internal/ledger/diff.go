package ledger

import (
	"math"
	"sort"
)

// DiffKind classifies one metric's delta between two runs.
type DiffKind int

const (
	// DiffSame: present in both, relative change within threshold.
	DiffSame DiffKind = iota
	// DiffChanged: changed, but within threshold.
	DiffChanged
	// DiffBreach: relative change beyond threshold, or a NaN appeared.
	DiffBreach
	// DiffOnlyA: metric present only in run A.
	DiffOnlyA
	// DiffOnlyB: metric present only in run B.
	DiffOnlyB
)

// Delta is one metric's comparison between runs A (candidate) and B
// (baseline).
type Delta struct {
	Name string   `json:"name"`
	A    float64  `json:"a"`
	B    float64  `json:"b"`
	Rel  float64  `json:"rel"` // (a-b)/|b|; ±1e18 stands in for a fresh-from-zero change
	Kind DiffKind `json:"kind"`
}

// relSentinel stands in for "relative change from a zero baseline" —
// effectively infinite, kept finite so it survives JSON.
const relSentinel = 1e18

// Compare diffs run A (candidate) against run B (baseline) metric by
// metric, sorted by name. threshold is the relative-change bound for a
// breach (e.g. 0.05 = 5%). The rules are cmd/statsdiff's gate
// semantics:
//
//   - a NaN on either side always breaches (a poisoned stat must never
//     pass a gate silently);
//   - a change from an exactly-zero baseline is treated as infinitely
//     large (Rel = ±1e18) and breaches for any threshold;
//   - metrics present on only one side are reported (DiffOnlyA/B) but
//     are not breaches — run shapes legitimately differ across configs.
func Compare(a, b map[string]float64, threshold float64) (deltas []Delta, breaches int) {
	names := make(map[string]struct{}, len(a)+len(b))
	for n := range a {
		names[n] = struct{}{}
	}
	for n := range b {
		names[n] = struct{}{}
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		va, okA := a[n]
		vb, okB := b[n]
		d := Delta{Name: n, A: va, B: vb}
		switch {
		case !okB:
			d.Kind = DiffOnlyA
		case !okA:
			d.Kind = DiffOnlyB
		case math.IsNaN(va) || math.IsNaN(vb):
			d.Rel = math.NaN()
			d.Kind = DiffBreach
			breaches++
		case va == vb:
			d.Kind = DiffSame
		case vb == 0:
			d.Rel = math.Copysign(relSentinel, va)
			d.Kind = DiffBreach
			breaches++
		default:
			d.Rel = (va - vb) / math.Abs(vb)
			if math.Abs(d.Rel) > threshold {
				d.Kind = DiffBreach
				breaches++
			} else {
				d.Kind = DiffChanged
			}
		}
		deltas = append(deltas, d)
	}
	return deltas, breaches
}
