package main

import (
	"fmt"
	"time"

	"stackedsim/internal/core"
	"stackedsim/internal/telemetry"
)

// observers are the simulator's optional attachments, each as the
// change it makes to a built machine. "plain" is the reference.
var observers = []struct {
	name   string
	attach func(*core.System)
}{
	{"plain", func(*core.System) {}},
	{"telemetry", func(sys *core.System) {
		sys.AttachTelemetry(telemetry.New(telemetry.Options{SampleEvery: 1000, TraceEvents: true, TraceSample: 64}))
	}},
	{"attrib", func(sys *core.System) {
		sys.AttachAttrib(sys.NewAttribCollector(telemetry.NewRegistry()))
	}},
	{"powerthermal", func(sys *core.System) {
		sys.AttachPowerThermal(telemetry.NewRegistry(), 0)
	}},
	{"fulltick", func(sys *core.System) { sys.Engine.SetFullTick(true) }},
}

// observerCost is the standing answer to "what does each observer
// cost": the sat4 machine run for obsCycles with each observer
// attached, reps interleaved across variants, as wall with ÷ wall
// without. An observer that changes the simulation's digest fails.
func (h *harness) observerCost() values {
	w := *h.workload("sat4")
	w.warmup, w.measure = 0, h.size.obsCycles
	walls := make([][]float64, len(observers))
	var plainDigest uint64
	for i := 0; i < h.size.obsReps; i++ {
		for j, obs := range observers {
			h.attempted++
			m, err := w.build(h.seed, nil)
			if err != nil {
				h.fail("observer "+obs.name+" build", err)
				continue
			}
			sys := m.(*systemMachine).sys
			obs.attach(sys)
			t0 := time.Now()
			met := sys.Run()
			walls[j] = append(walls[j], time.Since(t0).Seconds())
			if err := checkSystem(sys, met); err != nil {
				h.fail("observer "+obs.name, err)
			}
			if j == 0 {
				plainDigest = sys.Digest()
			} else if d := sys.Digest(); d != plainDigest {
				h.fail("observer "+obs.name, fmt.Errorf("digest %016x differs from plain %016x", d, plainDigest))
			}
		}
	}
	v := values{}
	for j, obs := range observers[1:] {
		v["obs."+obs.name+"_ratio"] = median(walls[j+1]) / median(walls[0])
	}
	return v
}
