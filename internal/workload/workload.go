package workload

import (
	"fmt"
	"strings"
)

// The label spellings below are part of every ledger RunID; they are
// written only in this file.
const (
	mixLabel    = "mix:"
	singleLabel = "single:"
	benchLabel  = "bench:"
)

// Workload is what one simulation runs: one benchmark per core, and the
// canonical labels that name it in ledger content addresses and run
// manifests. The zero Workload runs nothing and has no labels.
type Workload struct {
	name    string
	labels  []string
	benches []string
}

// OfMix is the named Table 2b mix, labelled "mix:<Name>".
func OfMix(name string) (Workload, error) {
	mix, ok := MixByName(name)
	if !ok {
		return Workload{}, fmt.Errorf("unknown mix %q", name)
	}
	return Workload{name: mix.Name, labels: []string{mixLabel + mix.Name}, benches: mix.Benchmarks[:]}, nil
}

// Single is one benchmark alone on core 0 (the Table 2a methodology),
// labelled "single:<bench>".
func Single(bench string) Workload {
	return Workload{name: bench, labels: []string{singleLabel + bench}, benches: []string{bench}}
}

// List is an explicit benchmark per core, labelled "bench:<b>" each.
func List(benches ...string) Workload {
	w := Workload{name: strings.Join(benches, ","), labels: make([]string, len(benches)), benches: benches}
	uniform := len(benches) > 0
	for i, b := range benches {
		w.labels[i] = benchLabel + b
		uniform = uniform && b == benches[0]
	}
	if uniform {
		w.name = benches[0]
	}
	return w
}

// Uniform is bench on every one of cores cores — the many-core
// methodology, where the 4-core Table 2b mixes do not stretch.
func Uniform(bench string, cores int) Workload {
	benches := make([]string, cores)
	for i := range benches {
		benches[i] = bench
	}
	return List(benches...)
}

// Labels returns the canonical labels; the caller must not modify them.
func (w Workload) Labels() []string { return w.labels }

// Benchmarks returns the benchmark of each core, in core order; the
// caller must not modify them.
func (w Workload) Benchmarks() []string { return w.benches }

// String is the short name progress lines and run reports use: the mix
// name, the benchmark when every core runs the same one, else the
// comma-joined list.
func (w Workload) String() string { return w.name }
