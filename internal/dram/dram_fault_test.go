package dram

import (
	"testing"

	"stackedsim/internal/attrib"
	"stackedsim/internal/fault"
	"stackedsim/internal/sim"
	"stackedsim/internal/telemetry"
)

func faultView(t *testing.T, specs ...fault.Spec) (*fault.Injector, *fault.MCView) {
	t.Helper()
	in, err := fault.NewInjector(&fault.Scenario{Faults: specs}, 1, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	return in, in.MC(0)
}

func TestBankCorrectableBitErrorDelaysRead(t *testing.T) {
	timing := Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	in, v := faultView(t, fault.Spec{Kind: fault.KindBitError, MC: -1, Prob: 1})
	b := NewBank(timing, 1)
	b.SetFaults(v)

	col := attrib.NewCollector(telemetry.NewRegistry(), 1, 1, 1)
	tag := col.NewTag(0, 0)
	// Row miss read: activate+CAS = 20, plus the default ECC penalty.
	dataAt, hit := b.AccessTagged(0, 5, false, tag)
	if hit {
		t.Fatal("first access must miss")
	}
	if want := sim.Cycle(20) + fault.DefaultECCLatency; dataAt != want {
		t.Fatalf("dataAt = %d, want %d (20 + ECC %d)", dataAt, want, fault.DefaultECCLatency)
	}
	if b.BusyUntil() != dataAt {
		t.Fatalf("bank busy until %d, want %d (busy through recovery)", b.BusyUntil(), dataAt)
	}
	if tag.FirstDataAt != 20 || tag.DataAt != dataAt {
		t.Fatalf("tag first/corrected delivery = %d/%d, want 20/%d", tag.FirstDataAt, tag.DataAt, dataAt)
	}
	st := in.Stats()
	if st.BitErrorsCorrected != 1 || st.ECCRetryCycles != uint64(fault.DefaultECCLatency) {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBankUncorrectableErrorRetries(t *testing.T) {
	timing := Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	in, v := faultView(t, fault.Spec{Kind: fault.KindBitError, MC: -1, Prob: 1, UncorrectablePct: 1, ECCLatency: 8})
	b := NewBank(timing, 1)
	b.SetFaults(v)
	// Prob and uncorrectable_pct of 1 drive the retry loop to its bound:
	// every attempt fails, so the penalty is maxReadRetries * (ECC + CAS).
	dataAt, _ := b.Access(0, 5, false)
	if want := sim.Cycle(20 + 4*(8+10)); dataAt != want {
		t.Fatalf("dataAt = %d, want %d (bounded retry loop)", dataAt, want)
	}
	if st := in.Stats(); st.BitErrorsUncorrectable != 4 {
		t.Fatalf("uncorrectable events = %d, want 4 (bounded)", st.BitErrorsUncorrectable)
	}
}

func TestBankWritesUnaffectedByBitErrors(t *testing.T) {
	timing := Timing{RAS: 30, RCD: 10, CAS: 10, WR: 10, RP: 10, RFC: 40}
	in, v := faultView(t, fault.Spec{Kind: fault.KindBitError, MC: -1, Prob: 1})
	b := NewBank(timing, 1)
	b.SetFaults(v)
	if dataAt, _ := b.Access(0, 5, true); dataAt != 20 {
		t.Fatalf("write dataAt = %d, want 20 (errors surface on read)", dataAt)
	}
	if st := in.Stats(); st.BitErrorsCorrected != 0 {
		t.Fatalf("write drew a bit error: %+v", st)
	}
}
