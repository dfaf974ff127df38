package sched

import "sfcsched/internal/core"

// Kamel implements the deadline-driven multi-priority algorithm of Kamel,
// Niranjan & Ghandeharizadeh (ICDE 2000), the paper's reference [12]: an
// arriving request is inserted at its scan position when that keeps every
// queued deadline feasible; otherwise the scheduler moves the lowest
// priority queued request to the tail and retries, so deadline pressure is
// absorbed by the least important work. Tail-parked requests stay out of
// the scan order and are served only after the active queue drains.
type Kamel struct {
	active queue // scan-ordered, feasibility-protected
	parked queue // sacrificed low-priority requests
	est    Estimator
	// MaxEvictions bounds the evict-and-retry loop per insertion.
	MaxEvictions int
	// Priority extracts the absolute priority level used to pick eviction
	// victims (0 = highest). Defaults to the request's first priority
	// dimension; the §4.3 extension replaces it with an SFC1 collapse.
	Priority func(*core.Request) int
}

// NewKamel returns the deadline-driven multi-priority scheduler.
func NewKamel(est Estimator) *Kamel {
	return &Kamel{est: est, MaxEvictions: 8, Priority: priorityOf}
}

// Name implements Scheduler.
func (s *Kamel) Name() string { return "kamel" }

// Len implements Scheduler.
func (s *Kamel) Len() int { return s.active.Len() + s.parked.Len() }

// Each implements Scheduler.
func (s *Kamel) Each(visit func(*core.Request)) {
	s.active.Each(visit)
	s.parked.Each(visit)
}

// priorityOf returns the request's primary priority level (0 = highest).
func priorityOf(r *core.Request) int {
	if len(r.Priorities) == 0 {
		return 0
	}
	return r.Priorities[0]
}

// Add implements Scheduler.
func (s *Kamel) Add(r *core.Request, now int64, head int) {
	for ev := 0; ; ev++ {
		pos := scanInsertPos(s.active.reqs, r, head)
		s.active.insertAt(pos, r)
		if ev >= s.MaxEvictions || s.active.Len() == 1 || feasible(s.est, s.active.reqs, now, head) {
			return
		}
		s.active.removeAt(pos)
		// Park the lowest-priority active request at the tail and retry.
		low := 0
		for i, q := range s.active.reqs {
			if s.Priority(q) > s.Priority(s.active.reqs[low]) {
				low = i
			}
		}
		s.parked.add(s.active.removeAt(low))
	}
}

// scanInsertPos returns the insertion index keeping reqs in upward-sweep
// order (cyclic distance ahead of the head).
func scanInsertPos(reqs []*core.Request, r *core.Request, head int) int {
	key := func(c int) int {
		d := c - head
		if d < 0 {
			d += 1 << 30
		}
		return d
	}
	k := key(r.Cylinder)
	for i, q := range reqs {
		if key(q.Cylinder) > k {
			return i
		}
	}
	return len(reqs)
}

// Next implements Scheduler.
func (s *Kamel) Next(now int64, head int) *core.Request {
	if s.active.Len() > 0 {
		return s.active.removeAt(0)
	}
	if s.parked.Len() > 0 {
		return s.parked.removeAt(0)
	}
	return nil
}
