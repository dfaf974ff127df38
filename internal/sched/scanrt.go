package sched

import "sfcsched/internal/core"

// SCANRT (Kamel & Ito) keeps the queue in scan order and inserts an
// arriving request at its scan position only when doing so would not push
// any already-queued request past its deadline; otherwise the arrival is
// appended to the tail. Dispatch simply pops the queue front.
type SCANRT struct {
	queue
	est Estimator
}

// NewSCANRT returns a SCAN-RT scheduler using est for deadline-feasibility
// estimates.
func NewSCANRT(est Estimator) *SCANRT { return &SCANRT{est: est} }

// Name implements Scheduler.
func (s *SCANRT) Name() string { return "scan-rt" }

// Add implements Scheduler.
func (s *SCANRT) Add(r *core.Request, now int64, head int) {
	pos := scanInsertPos(s.reqs, r, head)
	s.insertAt(pos, r)
	if !feasible(s.est, s.reqs, now, head) {
		s.removeAt(pos)
		s.add(r)
	}
}

// Next implements Scheduler.
func (s *SCANRT) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	return s.removeAt(0)
}
