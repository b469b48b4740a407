package core

import (
	"errors"
	"fmt"
)

// CheckInvariants validates cross-component bookkeeping after a run has
// quiesced (call after DrainQuiesce or at any point where no request
// should be in flight). It exists to catch simulator bugs — lost
// requests, leaked MSHR entries, double accounting — rather than to
// model hardware. What a drained part looks like is the part's own
// knowledge (CheckDrained); this walks the parts.
func (s *System) CheckInvariants() error {
	var errs []error
	for i := range s.L1s {
		if n := s.L1s[i].InFlight(); n != 0 {
			errs = append(errs, fmt.Errorf("L1 %d holds %d misses and rejected requests after quiesce", i, n))
		}
		if n := s.IL1s[i].InFlight(); n != 0 {
			errs = append(errs, fmt.Errorf("IL1 %d holds %d misses and rejected requests after quiesce", i, n))
		}
	}
	if n := s.l1Misses.Live(); n != 0 {
		errs = append(errs, fmt.Errorf("L1 miss pool: %d entries never recycled after quiesce", n))
	}
	errs = append(errs, s.second.CheckDrained())
	if s.Stack != nil {
		errs = append(errs, s.Stack.CheckDrained())
	}
	for _, ch := range s.channels {
		errs = append(errs, ch.mc.CheckDrained())
	}
	return errors.Join(errs...)
}

// inFlight counts the memory traffic the machine still holds, walking
// the same parts as CheckInvariants: zero means every "still holds"
// clause there is clean at this cycle.
func (s *System) inFlight() int {
	n := s.second.InFlight()
	for i := range s.L1s {
		n += s.L1s[i].InFlight() + s.IL1s[i].InFlight()
	}
	if s.Stack != nil {
		n += s.Stack.InFlight()
	}
	for _, ch := range s.channels {
		n += ch.mc.InFlight()
	}
	return n
}

// DrainQuiesce halts every core's front end and runs the machine until
// all in-flight memory traffic drains or maxCycles elapse. It reports
// whether the system quiesced (after which CheckInvariants is
// meaningful).
func (s *System) DrainQuiesce(maxCycles int64) bool {
	s.Engine.Settle()
	for _, c := range s.Cores {
		c.Halt()
	}
	for i := int64(0); i < maxCycles && s.inFlight() != 0; i++ {
		s.Engine.Step()
	}
	return s.inFlight() == 0
}
