package powerthermal

import (
	"fmt"
	"strings"
)

// heatShades maps a normalized activity/temperature to a glyph.
const heatShades = " .:-=+*#%@"

func shade(v, max float64) byte {
	if max <= 0 || v <= 0 {
		return heatShades[0]
	}
	i := int(v / max * float64(len(heatShades)-1))
	if i >= len(heatShades) {
		i = len(heatShades) - 1
	}
	return heatShades[i]
}

// bankHeatmap renders per-bank accesses since the last statistics
// reset, one row per rank, one column per bank.
func (t *Tracker) bankHeatmap() string {
	max := uint64(0)
	for _, ch := range t.m.Channels {
		for _, rank := range ch.Ranks {
			for _, b := range rank.Banks {
				if n := b.Stats().Accesses; n > max {
					max = n
				}
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "  per-bank accesses (cols=banks, shade 0..%d):\n", max)
	for _, ch := range t.m.Channels {
		for r, rank := range ch.Ranks {
			fmt.Fprintf(&sb, "    %-14s |", fmt.Sprintf("%s.rank%d", ch.Name, r))
			total := uint64(0)
			for _, b := range rank.Banks {
				n := b.Stats().Accesses
				total += n
				sb.WriteByte(shade(float64(n), float64(max)))
			}
			fmt.Fprintf(&sb, "| %d\n", total)
		}
	}
	return sb.String()
}

// sparkWidth caps trajectory sparkline columns.
const sparkWidth = 64

func sparkline(vals []float64, lo, hi float64) string {
	if len(vals) == 0 {
		return ""
	}
	n := len(vals)
	cols := n
	if cols > sparkWidth {
		cols = sparkWidth
	}
	var sb strings.Builder
	for c := 0; c < cols; c++ {
		v := vals[c*n/cols]
		if hi > lo {
			sb.WriteByte(shade(v-lo, hi-lo))
		} else {
			sb.WriteByte(heatShades[0])
		}
	}
	return sb.String()
}

// Report renders the run-end power/thermal block: per-layer table,
// limit accounting, bank heatmap and temperature trajectory.
func (t *Tracker) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "power/thermal (%d windows of %d cycles, thermal accel %gx):\n",
		t.windows, t.every, DefaultThermalAccel)
	fmt.Fprintf(&sb, "  %-12s %8s %8s %8s %12s\n", "layer", "W", "C", "peak C", "over cycles")
	for _, l := range t.State().Layers {
		fmt.Fprintf(&sb, "  %-12s %8.2f %8.1f %8.1f %12d\n",
			l.Name, l.PowerW, l.TempC, l.PeakC, l.OverLimitCycles)
	}
	if t.hasOffchip {
		fmt.Fprintf(&sb, "  %-12s %8.2f %8.1f %8.1f %12d\n",
			"offchip", t.offW, t.offC, t.offPeakC, t.offOverCycles)
	}
	fmt.Fprintf(&sb, "  worst-case DRAM: %.1fC (limit %.0fC, ok=%v); exceedances %d, over-limit cycles %d\n",
		t.maxDRAMC, DRAMThermalLimitC, !t.over, t.cExceed.Value(), t.cOverCycles.Value())
	sb.WriteString(t.bankHeatmap())
	if len(t.traj) > 0 {
		lo, hi := t.traj[0].TempC[0], t.traj[0].TempC[0]
		for _, tp := range t.traj {
			for _, c := range tp.TempC {
				if c < lo {
					lo = c
				}
				if c > hi {
					hi = c
				}
			}
		}
		fmt.Fprintf(&sb, "  temperature trajectory (%d samples, shade %.1f..%.1fC):\n", len(t.traj), lo, hi)
		vals := make([]float64, len(t.traj))
		for i, name := range t.stack.Names {
			for s, tp := range t.traj {
				vals[s] = tp.TempC[i]
			}
			fmt.Fprintf(&sb, "    %-12s |%s| %.1fC\n", name, sparkline(vals, lo, hi), t.stack.TempC(i))
		}
	}
	return sb.String()
}
