package workload

import (
	"reflect"
	"testing"
)

// TestLabelsRoundTrip pins the wire contract: parsing the labels a
// Workload prints rebuilds the same labels, benchmarks and name, for
// every Table 2b mix and every benchmark in each of its three roles.
func TestLabelsRoundTrip(t *testing.T) {
	var all []Workload
	for _, m := range Mixes {
		w, err := OfMix(m.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w.Benchmarks(), m.Benchmarks[:]) || w.String() != m.Name {
			t.Errorf("OfMix(%s) = %v %q", m.Name, w.Benchmarks(), w)
		}
		all = append(all, w)
	}
	for _, s := range append(append([]Spec(nil), Specs...), SharedSpecs...) {
		all = append(all, Single(s.Name), Uniform(s.Name, 16), List(s.Name, "mcf"))
	}
	for _, w := range all {
		got, err := ParseLabels(w.Labels())
		if err != nil {
			t.Errorf("ParseLabels(%v): %v", w.Labels(), err)
			continue
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("ParseLabels(%v) = %+v, want %+v", w.Labels(), got, w)
		}
	}
}

// TestLabelSpellings pins the three spellings themselves: they feed
// every ledger RunID, so changing one orphans every recorded run.
func TestLabelSpellings(t *testing.T) {
	mix, _ := OfMix("VH1")
	for _, c := range []struct {
		w      Workload
		labels []string
		name   string
	}{
		{mix, []string{"mix:VH1"}, "VH1"},
		{Single("mcf"), []string{"single:mcf"}, "mcf"},
		{List("S.copy", "mcf"), []string{"bench:S.copy", "bench:mcf"}, "S.copy,mcf"},
		{Uniform("mcf", 3), []string{"bench:mcf", "bench:mcf", "bench:mcf"}, "mcf"},
	} {
		if !reflect.DeepEqual(c.w.Labels(), c.labels) || c.w.String() != c.name {
			t.Errorf("labels %v name %q, want %v %q", c.w.Labels(), c.w, c.labels, c.name)
		}
	}
}

func TestParseLabelsRejectsMalformed(t *testing.T) {
	for _, labels := range [][]string{
		nil,
		{},
		{"mix:NOPE"},
		{"mix:vh1"},
		{"VH1"},
		{"mix:VH1", "mix:H1"},
		{"single:mcf", "single:mcf"},
		{"bench:mcf", "single:mcf"},
		{"bench:mcf", ""},
	} {
		if w, err := ParseLabels(labels); err == nil {
			t.Errorf("ParseLabels(%q) = %+v, want an error", labels, w)
		}
	}
	if _, err := OfMix("nope"); err == nil || err.Error() != `unknown mix "nope"` {
		t.Errorf("OfMix(nope) error = %v", err)
	}
}
