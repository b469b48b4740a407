package mshr

import (
	"stackedsim/internal/sim"
)

// Resizer implements the paper's dynamic MSHR capacity tuning (§5.1):
// the MSHR has a small set of possible sizes (1×, ½× and ¼× of maximum);
// a brief training phase runs each setting and records the committed
// μops, then the best setting is fixed until the next sampling period.
//
// The Resizer controls every L2 MSHR bank together, scaling each bank's
// active limit by the same fraction.
type Resizer struct {
	banks    []*File
	progress func() uint64 // monotonic performance counter (committed μops)
	sample   sim.Cycle     // cycles per training sample
	epoch    sim.Cycle     // cycles to hold the winning setting
	divisors []int         // candidate capacity divisors: 1, 2, 4

	phase      int // index into divisors while training; -1 when fixed
	phaseStart sim.Cycle
	startCount uint64
	scores     []uint64
	fixedUntil sim.Cycle
	best       int // winning divisor index

	// handle, when set, lets the tuner sleep between phase boundaries:
	// the state machine is purely time-driven (a training sample or a
	// fixed epoch elapsing), so every tick in between is provably a
	// no-op. A nil handle keeps the per-cycle early-return behaviour.
	handle *sim.TickHandle
}

// NewResizer returns a tuner over the given banks. progress must be a
// monotonically non-decreasing counter; committed μops across all cores
// is what the paper samples.
func NewResizer(banks []*File, progress func() uint64, sample, epoch sim.Cycle) *Resizer {
	if len(banks) == 0 {
		panic("mshr: NewResizer with no banks")
	}
	if sample < 1 {
		sample = 1
	}
	if epoch < sample {
		epoch = sample
	}
	r := &Resizer{
		banks:    banks,
		progress: progress,
		sample:   sample,
		epoch:    epoch,
		divisors: []int{1, 2, 4},
	}
	r.scores = make([]uint64, len(r.divisors))
	r.beginTraining(0)
	return r
}

// Divisor reports the currently applied capacity divisor.
func (r *Resizer) Divisor() int {
	if r.phase >= 0 {
		return r.divisors[r.phase]
	}
	return r.divisors[r.best]
}

// Training reports whether a sampling phase is in progress.
func (r *Resizer) Training() bool { return r.phase >= 0 }

func (r *Resizer) apply(div int) {
	for _, b := range r.banks {
		limit := b.Cap() / div
		if limit < 1 {
			limit = 1
		}
		b.SetLimit(limit)
	}
}

func (r *Resizer) beginTraining(now sim.Cycle) {
	r.phase = 0
	r.phaseStart = now
	r.startCount = r.progress()
	r.apply(r.divisors[0])
}

// SetHandle gives the tuner its engine tick handle; it immediately
// sleeps to its next phase boundary and keeps doing so after each Tick.
func (r *Resizer) SetHandle(h *sim.TickHandle) {
	r.handle = h
	r.resched()
}

// resched sleeps until the next phase boundary: the end of the current
// training sample, or the end of the fixed epoch.
func (r *Resizer) resched() {
	if r.phase >= 0 {
		r.handle.SleepUntil(r.phaseStart + r.sample)
	} else {
		r.handle.SleepUntil(r.fixedUntil)
	}
}

// Tick advances the tuner state machine.
func (r *Resizer) Tick(now sim.Cycle) {
	r.step(now)
	if r.handle != nil {
		r.resched()
	}
}

func (r *Resizer) step(now sim.Cycle) {
	if r.phase >= 0 {
		if now-r.phaseStart < r.sample {
			return
		}
		r.scores[r.phase] = r.progress() - r.startCount
		r.phase++
		if r.phase < len(r.divisors) {
			r.phaseStart = now
			r.startCount = r.progress()
			r.apply(r.divisors[r.phase])
			return
		}
		// Training complete: fix the best-performing setting.
		r.best = 0
		for i := range r.scores {
			if r.scores[i] > r.scores[r.best] {
				r.best = i
			}
		}
		r.phase = -1
		r.fixedUntil = now + r.epoch
		r.apply(r.divisors[r.best])
		return
	}
	if now >= r.fixedUntil {
		r.beginTraining(now)
	}
}
