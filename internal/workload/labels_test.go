package workload

import (
	"reflect"
	"strings"
	"testing"
)

// TestLabelsRoundTrip pins what a round trip from labels back to a
// workload needs, and what a RunID needs of them: two workloads that
// run differently never share a label list, for every Table 2b mix and
// every benchmark in each of its three roles.
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
	if _, err := OfMix("nope"); err == nil || err.Error() != `unknown mix "nope"` {
		t.Errorf("OfMix(nope) error = %v", err)
	}
	for _, s := range append(append([]Spec(nil), Specs...), SharedSpecs...) {
		all = append(all, Single(s.Name), Uniform(s.Name, 16), List(s.Name, "mcf"))
	}
	seen := map[string]Workload{}
	for _, w := range all {
		key := strings.Join(w.Labels(), "|")
		if prev, ok := seen[key]; ok && !reflect.DeepEqual(prev, w) {
			t.Errorf("labels %v name both %+v and %+v", w.Labels(), prev, w)
		}
		seen[key] = w
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
