package core

import (
	"errors"
	"fmt"
)

// CheckInvariants validates cross-component bookkeeping after a run has
// quiesced (call after DrainQuiesce or at any point where no request
// should be in flight). It exists to catch simulator bugs — lost
// requests, leaked MSHR entries, double accounting — rather than to
// model hardware.
func (s *System) CheckInvariants() error {
	var errs []error

	// Every L2 MSHR entry should eventually drain once cores stop
	// issuing; outstanding entries after quiesce are leaks.
	if s.L2 != nil {
		for i, f := range s.L2.MSHRBanks() {
			if n := f.Len(); n != 0 {
				errs = append(errs, fmt.Errorf("mshr bank %d holds %d entries after quiesce", i, n))
			}
			st := f.Stats()
			// Entries allocated during warmup may release after the stats
			// reset, so releases can exceed allocs; fewer releases than
			// allocs after quiesce means entries were lost.
			if st.Releases < st.Allocs {
				errs = append(errs, fmt.Errorf("mshr bank %d: %d allocs but only %d releases", i, st.Allocs, st.Releases))
			}
		}
	}
	if s.Coh != nil {
		// Private L2 miss tables and writeback buffers must drain, no
		// coherence message may be stuck in the mesh, and — liveness —
		// no request may still be parked behind a directory line.
		for c := 0; c < s.Cfg.Cores; c++ {
			if n := s.Coh.L2(c).OutstandingMisses(); n != 0 {
				errs = append(errs, fmt.Errorf("private L2 %d holds %d outstanding misses after quiesce", c, n))
			}
			if n := s.Coh.L2(c).WritebacksInFlight(); n != 0 {
				errs = append(errs, fmt.Errorf("private L2 %d holds %d unacknowledged writebacks after quiesce", c, n))
			}
		}
		if n := s.Coh.Mesh().InFlight(); n != 0 {
			errs = append(errs, fmt.Errorf("mesh holds %d packets after quiesce", n))
		}
		if n := s.Coh.DeferredRequests(); n != 0 {
			errs = append(errs, fmt.Errorf("directory holds %d deferred requests after quiesce", n))
		}
	}
	// L1 MSHRs must also be empty.
	for i, l1 := range s.L1s {
		if n := l1.OutstandingMisses(); n != 0 {
			errs = append(errs, fmt.Errorf("L1 %d holds %d outstanding misses after quiesce", i, n))
		}
	}
	for i, il1 := range s.IL1s {
		if n := il1.OutstandingMisses(); n != 0 {
			errs = append(errs, fmt.Errorf("IL1 %d holds %d outstanding misses after quiesce", i, n))
		}
	}
	// Memory controllers: everything submitted was completed, queues
	// empty.
	for _, mc := range s.MCs {
		st := mc.Stats()
		// Warmup stragglers can complete after the reset (completed >
		// scheduled); completions falling short means requests vanished.
		if st.Completed < st.Reads+st.Writes {
			errs = append(errs, fmt.Errorf("mc%d: %d scheduled but only %d completed", mc.ID(), st.Reads+st.Writes, st.Completed))
		}
		if n := mc.QueueLen(); n != 0 {
			errs = append(errs, fmt.Errorf("mc%d: %d requests stuck in the MRQ", mc.ID(), n))
		}
		if st.RowHits > st.Reads+st.Writes {
			errs = append(errs, fmt.Errorf("mc%d: more row hits (%d) than accesses (%d)", mc.ID(), st.RowHits, st.Reads+st.Writes))
		}
	}
	// Cache accounting sanity.
	if s.L2 != nil {
		l2 := s.L2.Stats()
		if l2.Hits > l2.Accesses {
			errs = append(errs, fmt.Errorf("L2: hits %d exceed accesses %d", l2.Hits, l2.Accesses))
		}
	}
	if s.Coh != nil {
		cs := s.Coh.Stats()
		if cs.Hits > cs.Accesses {
			errs = append(errs, fmt.Errorf("coherence: hits %d exceed accesses %d", cs.Hits, cs.Accesses))
		}
		// As with the controllers, packets injected during warmup may
		// be delivered after the reset; fewer deliveries than injections
		// after quiesce means packets vanished.
		ms := s.Coh.Mesh().Stats()
		if ms.Delivered < ms.Injected {
			errs = append(errs, fmt.Errorf("mesh: %d packets injected but only %d delivered", ms.Injected, ms.Delivered))
		}
	}
	return errors.Join(errs...)
}

// DrainQuiesce halts every core's front end and runs the machine until
// all in-flight memory traffic drains or maxCycles elapse. It reports
// whether the system quiesced (after which CheckInvariants is
// meaningful).
func (s *System) DrainQuiesce(maxCycles int64) bool {
	for _, c := range s.Cores {
		c.FlushIdle(s.Engine.Now())
		c.Halt()
	}
	quiet := func() bool {
		if s.L2 != nil {
			for _, f := range s.L2.MSHRBanks() {
				if f.Len() != 0 {
					return false
				}
			}
		}
		if s.Coh != nil {
			for c := 0; c < s.Cfg.Cores; c++ {
				if s.Coh.L2(c).OutstandingMisses() != 0 || s.Coh.L2(c).WritebacksInFlight() != 0 {
					return false
				}
			}
			if s.Coh.Mesh().InFlight() != 0 {
				return false
			}
		}
		for _, l1 := range s.L1s {
			if l1.OutstandingMisses() != 0 {
				return false
			}
		}
		for _, il1 := range s.IL1s {
			if il1.OutstandingMisses() != 0 {
				return false
			}
		}
		for _, mc := range s.MCs {
			if mc.QueueLen() != 0 {
				return false
			}
		}
		return true
	}
	for i := int64(0); i < maxCycles; i++ {
		if quiet() {
			return true
		}
		s.Engine.Step()
	}
	return quiet()
}
