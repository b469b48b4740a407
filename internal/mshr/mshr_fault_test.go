package mshr

import (
	"testing"

	"stackedsim/internal/config"
	"stackedsim/internal/fault"
)

func TestProbeParityCostsOneReProbe(t *testing.T) {
	in, err := fault.NewInjector(&fault.Scenario{Faults: []fault.Spec{
		{Kind: fault.KindMSHRParity, Prob: 1},
	}}, 1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	f := New(config.MSHRIdealCAM, 8)
	f.SetFaults(in.MSHR())
	// The ideal CAM always probes once; a parity error re-probes.
	if _, probes, _ := f.Lookup(0x1000); probes != 2 {
		t.Fatalf("probes = %d, want 2 (1 + parity re-probe)", probes)
	}
	if f.Stats().Probes != 2 {
		t.Fatalf("accounted probes = %d, want 2", f.Stats().Probes)
	}
	if in.Stats().MSHRParityErrors != 1 {
		t.Fatalf("parity errors = %d, want 1", in.Stats().MSHRParityErrors)
	}
}

func TestNoParityViewIsFaultFree(t *testing.T) {
	f := New(config.MSHRIdealCAM, 8)
	if _, probes, _ := f.Lookup(0x1000); probes != 1 {
		t.Fatalf("probes = %d, want 1 without faults", probes)
	}
}
