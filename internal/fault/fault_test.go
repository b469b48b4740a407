package fault

import (
	"strings"
	"testing"

	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

func TestParseAndValidate(t *testing.T) {
	s, err := Parse([]byte(`{
		"name": "mixed",
		"seed": 7,
		"faults": [
			{"kind": "bit-error", "mc": -1, "prob": 0.01, "uncorrectable_pct": 0.2},
			{"kind": "rank-stuck", "mc": 0, "rank": 1, "from": 100, "until": 200},
			{"kind": "rank-dead", "mc": 0, "rank": 0, "from": 50, "failover": true},
			{"kind": "tsv-degraded", "mc": 1, "from": 10, "until": 1000, "width_factor": 4},
			{"kind": "tsv-dead", "mc": 1, "from": 2000, "until": 2100},
			{"kind": "mc-stall", "mc": 0, "from": 300, "until": 400},
			{"kind": "mc-flap", "mc": 1, "period": 100, "duty": 0.25},
			{"kind": "mshr-parity", "prob": 0.001}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "mixed" || s.Seed != 7 || len(s.Faults) != 8 {
		t.Fatalf("parsed scenario = %+v", s)
	}
	if !s.Active() {
		t.Fatal("scenario with faults must be active")
	}

	// An empty fault list is valid (constructed-but-disabled parity).
	empty, err := Parse([]byte(`{"name": "empty", "faults": []}`))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Active() {
		t.Fatal("empty scenario must be inactive")
	}

	bad := []string{
		`{"faults": [{"kind": "nope"}]}`,
		`{"faults": [{"kind": "bit-error", "prob": 0}]}`,
		`{"faults": [{"kind": "bit-error", "prob": 2}]}`,
		`{"faults": [{"kind": "bit-error", "prob": 0.5, "uncorrectable_pct": 1.5}]}`,
		`{"faults": [{"kind": "rank-stuck", "rank": -1}]}`,
		`{"faults": [{"kind": "mc-flap", "duty": 0.5}]}`,
		`{"faults": [{"kind": "mc-flap", "period": 10, "duty": 0}]}`,
		`{"faults": [{"kind": "tsv-degraded", "width_factor": 1}]}`,
		`{"faults": [{"kind": "tsv-dead", "from": 10}]}`,
		`{"faults": [{"kind": "mc-stall", "from": 10, "until": 5}]}`,
		`{"faults": [{}]}`,
		`{"faults": [`,
	}
	for _, src := range bad {
		if _, err := Parse([]byte(src)); err == nil {
			t.Fatalf("Parse(%s) must fail", src)
		}
	}
}

func TestInjectorShapeValidation(t *testing.T) {
	if _, err := NewInjector(&Scenario{Faults: []Spec{{Kind: KindMCStall, MC: 2}}}, 1, []int{4, 4}); err == nil {
		t.Fatal("mc out of range must fail")
	}
	if _, err := NewInjector(&Scenario{Faults: []Spec{{Kind: KindRankStuck, MC: 0, Rank: 4}}}, 1, []int{4, 4}); err == nil {
		t.Fatal("rank out of range must fail")
	}
}

// TestBackingViewHasItsOwnRankBound covers the stack-cache shape: the
// off-chip backing channel is listed after the stacked ones with fewer
// ranks, and each view is bounded by its own count.
func TestBackingViewHasItsOwnRankBound(t *testing.T) {
	shape := []int{8, 4} // one stacked channel, then the backing one
	stuck := func(mc, rank int) *Scenario {
		return &Scenario{Faults: []Spec{{Kind: KindRankStuck, MC: mc, Rank: rank}}}
	}
	if _, err := NewInjector(stuck(1, 4), 1, shape); err == nil {
		t.Fatal("rank 4 of the 4-rank backing channel must fail")
	}
	if _, err := NewInjector(stuck(2, 0), 1, shape); err == nil {
		t.Fatal("a view past the backing channel must fail")
	}
	in, err := NewInjector(stuck(1, 3), 1, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !in.MC(1).RankBlocked(0, 3) || in.MC(0).RankBlocked(0, 3) {
		t.Fatal("a fault on the backing view must hit it and only it")
	}
	// A broadcast fault fits the widest channel and skips narrower ones.
	in, err = NewInjector(stuck(-1, 6), 1, shape)
	if err != nil {
		t.Fatal(err)
	}
	if !in.MC(0).RankBlocked(0, 6) || in.MC(1).RankBlocked(0, 6) {
		t.Fatal("broadcast rank 6 must arm the 8-rank channel and skip the 4-rank one")
	}
}

func TestNilInjectorAndViewsAreFaultFree(t *testing.T) {
	var in *Injector
	if in.Active() || in.Stats().Total() != 0 || in.Scenario() != nil {
		t.Fatal("nil injector must be inert")
	}
	in.SetClock(nil)
	in.Instrument(telemetry.NewRegistry())
	v := in.MC(0)
	if v != nil {
		t.Fatal("nil injector must hand out nil MC views")
	}
	if v.StallEdge(10) || v.RankBlocked(10, 0) {
		t.Fatal("nil view must never stall or block")
	}
	if _, ok := v.FailoverTarget(10, 0); ok {
		t.Fatal("nil view must not remap")
	}
	if p := v.ReadPenalty(10, 12); p != 0 {
		t.Fatalf("nil view read penalty = %d", p)
	}
	if got := v.LinkDelay(10); got != 10 {
		t.Fatalf("nil view link delay moved start to %d", got)
	}
	if f := v.LinkFactor(10); f != 1 {
		t.Fatalf("nil view link factor = %d", f)
	}
	v.NoteRemap()
	v.NoteDegraded()
	var mv *MSHRView
	if mv.ProbeParity() {
		t.Fatal("nil MSHR view must never inject")
	}
}

func TestWindowsAndFlap(t *testing.T) {
	s := &Scenario{Faults: []Spec{
		{Kind: KindMCStall, MC: 0, From: 100, Until: 200},
		{Kind: KindMCFlap, MC: 1, From: 1000, Period: 100, Duty: 0.25},
	}}
	in, err := NewInjector(s, 1, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	v0, v1 := in.MC(0), in.MC(1)
	for _, tc := range []struct {
		v    *MCView
		now  sim.Cycle
		want bool
	}{
		{v0, 99, false}, {v0, 100, true}, {v0, 199, true}, {v0, 200, false},
		{v1, 999, false},         // flap not yet armed
		{v1, 1000, true},         // first duty cycle
		{v1, 1024, true},         // within the 25-cycle stall
		{v1, 1025, false},        // duty over
		{v1, 1100, true},         // next period
		{v1, 1000 + 7*100, true}, // any period start
		{v1, 1099, false},        // tail of the period
	} {
		if got := tc.v.StallEdge(tc.now); got != tc.want {
			t.Fatalf("StallEdge(mc%d, %d) = %v, want %v", tc.v.mc, tc.now, got, tc.want)
		}
	}
	if in.Stats().MCStallEdges != 6 {
		t.Fatalf("stall edges = %d, want 6 counted", in.Stats().MCStallEdges)
	}
}

func TestRankStuckAndDeadFailover(t *testing.T) {
	s := &Scenario{Faults: []Spec{
		{Kind: KindRankStuck, MC: 0, Rank: 1, From: 10, Until: 20},
		{Kind: KindRankDead, MC: 0, Rank: 2, From: 0, Failover: true},
		{Kind: KindRankDead, MC: 0, Rank: 3, From: 0},
	}}
	in, err := NewInjector(s, 1, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	v := in.MC(0)
	if v.RankBlocked(5, 1) {
		t.Fatal("rank 1 blocked before its stuck window")
	}
	if !v.RankBlocked(15, 1) {
		t.Fatal("rank 1 not blocked inside its stuck window")
	}
	// Rank 2 is dead but fails over: not blocked, remaps past dead rank 3
	// to rank 0.
	if v.RankBlocked(15, 2) {
		t.Fatal("failover-enabled dead rank must not block")
	}
	tgt, ok := v.FailoverTarget(15, 2)
	if !ok || tgt != 0 {
		t.Fatalf("failover target = %d/%v, want 0/true (skipping dead rank 3)", tgt, ok)
	}
	// Rank 3 is dead with no failover: blocked.
	if !v.RankBlocked(15, 3) {
		t.Fatal("dead rank without failover must block")
	}
	// A healthy rank never remaps.
	if _, ok := v.FailoverTarget(15, 0); ok {
		t.Fatal("healthy rank must not have a failover target")
	}
	if st := in.Stats(); st.RankBlocked != 2 {
		t.Fatalf("rank blocked count = %d, want 2", st.RankBlocked)
	}
	v.NoteRemap()
	if st := in.Stats(); st.RankRemaps != 1 {
		t.Fatalf("remaps = %d, want 1", st.RankRemaps)
	}
}

func TestLinkFaults(t *testing.T) {
	s := &Scenario{Faults: []Spec{
		{Kind: KindTSVDegraded, MC: 0, From: 100, Until: 200}, // default factor 2
		{Kind: KindTSVDead, MC: 0, From: 300, Until: 350},
		{Kind: KindTSVDead, MC: 0, From: 350, Until: 380}, // abuts the first
	}}
	in, err := NewInjector(s, 1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	v := in.MC(0)
	if f := v.LinkFactor(50); f != 1 {
		t.Fatalf("factor outside window = %d", f)
	}
	if f := v.LinkFactor(150); f != 2 {
		t.Fatalf("degraded factor = %d, want 2", f)
	}
	if got := v.LinkDelay(250); got != 250 {
		t.Fatalf("delay outside dead window = %d", got)
	}
	// A burst landing in the first dead window must clear both abutting
	// windows.
	if got := v.LinkDelay(320); got != 380 {
		t.Fatalf("delay through abutting dead windows = %d, want 380", got)
	}
	if st := in.Stats(); st.LinkDeadWaitCycles != 60 {
		t.Fatalf("dead wait cycles = %d, want 60", st.LinkDeadWaitCycles)
	}
	v.NoteDegraded()
	if st := in.Stats(); st.LinkDegradedTransfers != 1 {
		t.Fatalf("degraded transfers = %d", st.LinkDegradedTransfers)
	}
}

func TestReadPenaltyDeterministicAcrossInjectors(t *testing.T) {
	mk := func() *MCView {
		s := &Scenario{Seed: 42, Faults: []Spec{
			{Kind: KindBitError, MC: -1, Prob: 0.3, UncorrectablePct: 0.5},
		}}
		in, err := NewInjector(s, 999, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		return in.MC(0)
	}
	a, b := mk(), mk()
	var hits int
	for i := 0; i < 1000; i++ {
		pa := a.ReadPenalty(sim.Cycle(i), 12)
		pb := b.ReadPenalty(sim.Cycle(i), 12)
		if pa != pb {
			t.Fatalf("read %d: penalties diverge (%d vs %d) under the same seed", i, pa, pb)
		}
		if pa > 0 {
			hits++
			// Corrected errors cost the ECC latency; uncorrectable ones
			// at least ECC + CAS.
			if pa != DefaultECCLatency && pa < DefaultECCLatency+12 {
				t.Fatalf("read %d: implausible penalty %d", i, pa)
			}
		}
	}
	if hits == 0 {
		t.Fatal("0.3 probability over 1000 reads injected nothing")
	}
	st := a.in.Stats()
	if st.BitErrorsCorrected == 0 || st.BitErrorsUncorrectable == 0 {
		t.Fatalf("expected both error classes, got %+v", st)
	}
	if st.ECCRetryCycles == 0 {
		t.Fatal("retry cycles not accumulated")
	}
	if st != b.in.Stats() {
		t.Fatalf("stats diverge under the same seed: %+v vs %+v", st, b.in.Stats())
	}
}

func TestSeedSelection(t *testing.T) {
	// Scenario seed 0 defers to the run seed (mixed); explicit scenario
	// seeds override it.
	spec := []Spec{{Kind: KindBitError, Prob: 0.5}}
	runSeeded, _ := NewInjector(&Scenario{Faults: spec}, 1, []int{1})
	runSeeded2, _ := NewInjector(&Scenario{Faults: spec}, 2, []int{1})
	same := 0
	for i := 0; i < 100; i++ {
		if runSeeded.MC(0).ReadPenalty(0, 12) == runSeeded2.MC(0).ReadPenalty(0, 12) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different run seeds produced identical draw sequences")
	}
}

func TestMSHRParityUsesClock(t *testing.T) {
	s := &Scenario{Faults: []Spec{{Kind: KindMSHRParity, From: 100, Until: 200, Prob: 1}}}
	in, err := NewInjector(s, 1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	mv := in.MSHR()
	// Without a clock the window [100, 200) never contains "now" (0).
	if mv.ProbeParity() {
		t.Fatal("parity injected outside the window")
	}
	var now sim.Cycle
	in.SetClock(func() sim.Cycle { return now })
	now = 150
	if !mv.ProbeParity() {
		t.Fatal("prob=1 parity not injected inside the window")
	}
	now = 250
	if mv.ProbeParity() {
		t.Fatal("parity injected after the window closed")
	}
	if in.Stats().MSHRParityErrors != 1 {
		t.Fatalf("parity errors = %d, want 1", in.Stats().MSHRParityErrors)
	}
}

func TestInstrumentRegistersFaultMetrics(t *testing.T) {
	in, err := NewInjector(&Scenario{Faults: []Spec{{Kind: KindMCStall, From: 0}}}, 1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	in.Instrument(reg)
	names := strings.Join(reg.Names(), "\n")
	for _, want := range []string{
		"fault.active", "fault.biterror.corrected", "fault.biterror.uncorrectable",
		"fault.ecc.retry.cycles", "fault.rank.blocked", "fault.rank.remaps",
		"fault.mc.stall.edges", "fault.link.degraded.transfers",
		"fault.link.dead.wait.cycles", "fault.mshr.parity.errors",
	} {
		if !strings.Contains(names, want) {
			t.Fatalf("registry missing %q; have:\n%s", want, names)
		}
	}
	in.MC(0).StallEdge(5)
	got := map[string]float64{}
	reg.Scalars(func(name string, _ telemetry.MetricKind, v float64) { got[name] = v })
	if got["fault.active"] != 1 || got["fault.mc.stall.edges"] != 1 {
		t.Fatalf("scraped values = %v", got)
	}
}
