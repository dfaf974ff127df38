package sched

import "sfcsched/internal/core"

// FDSCAN (Abbott & Garcia-Molina) aims the sweep at the request with the
// earliest *feasible* deadline — one the head can still reach in time — and
// serves requests encountered en route. When no deadline is feasible it
// degrades to serving the earliest deadline.
type FDSCAN struct {
	queue
	est Estimator
}

// NewFDSCAN returns a feasible-deadline-scan scheduler using est to decide
// whether a deadline can still be met.
func NewFDSCAN(est Estimator) *FDSCAN { return &FDSCAN{est: est} }

// Name implements Scheduler.
func (s *FDSCAN) Name() string { return "fd-scan" }

// Add implements Scheduler.
func (s *FDSCAN) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *FDSCAN) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	target, earliest := s.earliestFeasible(now, head)
	if target < 0 {
		// No feasible deadline: fall back to the earliest one.
		target = earliest
	}
	// Serve the pending request closest to the head on the way to the
	// target (the target itself qualifies).
	tc := s.reqs[target].Cylinder
	best, bestD := target, absDist(tc, head)
	for i, r := range s.reqs {
		c := r.Cylinder
		onRoute := (head <= c && c <= tc) || (tc <= c && c <= head)
		if onRoute && absDist(c, head) < bestD {
			best, bestD = i, absDist(c, head)
		}
	}
	return s.removeAt(best)
}

// earliestFeasible returns the index of the request with the earliest
// deadline that the head can still meet, or -1, and the index of the
// earliest deadline overall; ties go to the lower index. A request costs an
// estimate only when its deadline would beat the feasible best and has not
// already passed: with est >= 0 an expired deadline is never feasible.
func (s *FDSCAN) earliestFeasible(now int64, head int) (target, earliest int) {
	target = -1
	var targetD, earliestD int64
	for i, r := range s.reqs {
		d := effDeadline(r)
		if i == 0 || d < earliestD {
			earliest, earliestD = i, d
		}
		if (target >= 0 && d >= targetD) || now > d || now+s.est(head, r.Cylinder, r.Size) > d {
			continue
		}
		target, targetD = i, d
	}
	return target, earliest
}
