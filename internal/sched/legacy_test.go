package sched

// This file preserves the pre-selection deadline scans verbatim — the
// sorting deadlineWindow behind SSEDO and SSEDV, FD-SCAN's two-pass target
// search, and the copy-on-insert Add of SCAN-RT and Kamel — as reference
// implementations for FuzzDeadlineSchedulersMatchLegacy. Their dispatch
// order is the contract: the in-place, allocation-free scans must pick the
// same request on every Next. Do not "fix" or modernize this code — its
// job is to stay faithful to the replaced scans.

import (
	"math"
	"sort"

	"sfcsched/internal/core"
)

// legacySSEDO is SSEDO with its original Next over legacyDeadlineWindow.
type legacySSEDO struct{ *SSEDO }

func (s legacySSEDO) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	cand := legacyDeadlineWindow(s.reqs, s.Window)
	best, bestScore := cand[0], math.Inf(1)
	for rank, i := range cand {
		r := s.reqs[i]
		// +1 keeps zero-distance requests comparable across ranks.
		score := float64(absDist(r.Cylinder, head)+1) * math.Pow(s.Beta, float64(rank))
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return s.removeAt(best)
}

// legacySSEDV is SSEDV with its original Next over legacyDeadlineWindow.
type legacySSEDV struct{ *SSEDV }

func (s legacySSEDV) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	cand := legacyDeadlineWindow(s.reqs, s.Window)
	maxSlack, maxSeek := int64(1), 1
	for _, i := range cand {
		r := s.reqs[i]
		if sl := r.Slack(now); sl > 0 && sl < 1<<61 && sl > maxSlack {
			maxSlack = sl
		}
		if d := absDist(r.Cylinder, head); d > maxSeek {
			maxSeek = d
		}
	}
	best, bestScore := cand[0], math.Inf(1)
	for _, i := range cand {
		r := s.reqs[i]
		sl := r.Slack(now)
		if sl < 0 {
			sl = 0
		}
		if sl > maxSlack {
			sl = maxSlack
		}
		score := s.Alpha*float64(sl)/float64(maxSlack) +
			(1-s.Alpha)*float64(absDist(r.Cylinder, head))/float64(maxSeek)
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	return s.removeAt(best)
}

// legacyDeadlineWindow returns the indices of the m earliest-deadline requests,
// ordered by deadline.
func legacyDeadlineWindow(reqs []*core.Request, m int) []int {
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return effDeadline(reqs[idx[a]]) < effDeadline(reqs[idx[b]])
	})
	if len(idx) > m {
		idx = idx[:m]
	}
	return idx
}

// legacyFDSCAN is FDSCAN with its original Next and earliestFeasible.
type legacyFDSCAN struct{ *FDSCAN }

func (s legacyFDSCAN) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	target := s.earliestFeasible(now, head)
	if target < 0 {
		// No feasible deadline: fall back to the earliest one.
		target = 0
		for i, r := range s.reqs[1:] {
			if effDeadline(r) < effDeadline(s.reqs[target]) {
				target = i + 1
			}
		}
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
// deadline that the head can still meet, or -1.
func (s legacyFDSCAN) earliestFeasible(now int64, head int) int {
	best := -1
	for i, r := range s.reqs {
		if now+s.est(head, r.Cylinder, r.Size) > effDeadline(r) {
			continue
		}
		if best < 0 || effDeadline(r) < effDeadline(s.reqs[best]) {
			best = i
		}
	}
	return best
}

// legacySCANRT is the original SCAN-RT, which built a fresh candidate
// slice on every arrival.
type legacySCANRT struct {
	reqs []*core.Request
	est  Estimator
}

func (s *legacySCANRT) Name() string { return "scan-rt" }

func (s *legacySCANRT) Len() int { return len(s.reqs) }

func (s *legacySCANRT) Each(visit func(*core.Request)) {
	for _, r := range s.reqs {
		visit(r)
	}
}

// Add implements Scheduler.
func (s *legacySCANRT) Add(r *core.Request, now int64, head int) {
	pos := scanInsertPos(s.reqs, r, head)
	cand := make([]*core.Request, 0, len(s.reqs)+1)
	cand = append(cand, s.reqs[:pos]...)
	cand = append(cand, r)
	cand = append(cand, s.reqs[pos:]...)
	if s.feasible(cand, now, head) {
		s.reqs = cand
		return
	}
	s.reqs = append(s.reqs, r)
}

// feasible simulates serving reqs in order from (now, head) and reports
// whether every deadline is met at service start.
func (s *legacySCANRT) feasible(reqs []*core.Request, now int64, head int) bool {
	t := now
	h := head
	for _, r := range reqs {
		if t > effDeadline(r) {
			return false
		}
		t += s.est(h, r.Cylinder, r.Size)
		h = r.Cylinder
	}
	return true
}

// Next implements Scheduler.
func (s *legacySCANRT) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r
}

// legacyKamel is the original Kamel, which built a fresh candidate slice
// on every insertion attempt.
type legacyKamel struct {
	active []*core.Request // scan-ordered, feasibility-protected
	parked []*core.Request // sacrificed low-priority requests
	est    Estimator
	// MaxEvictions bounds the evict-and-retry loop per insertion.
	MaxEvictions int
	// Priority extracts the absolute priority level used to pick eviction
	// victims (0 = highest).
	Priority func(*core.Request) int
}

func (s *legacyKamel) Name() string { return "kamel" }

func (s *legacyKamel) Len() int { return len(s.active) + len(s.parked) }

func (s *legacyKamel) Each(visit func(*core.Request)) {
	for _, r := range s.active {
		visit(r)
	}
	for _, r := range s.parked {
		visit(r)
	}
}

// Add implements Scheduler.
func (s *legacyKamel) Add(r *core.Request, now int64, head int) {
	for ev := 0; ; ev++ {
		pos := scanInsertPos(s.active, r, head)
		cand := make([]*core.Request, 0, len(s.active)+1)
		cand = append(cand, s.active[:pos]...)
		cand = append(cand, r)
		cand = append(cand, s.active[pos:]...)
		if s.feasible(cand, now, head) || ev >= s.MaxEvictions || len(s.active) == 0 {
			s.active = cand
			return
		}
		// Park the lowest-priority active request at the tail and retry.
		low := 0
		for i, q := range s.active {
			if s.Priority(q) > s.Priority(s.active[low]) {
				low = i
			}
		}
		victim := s.active[low]
		s.active = append(s.active[:low], s.active[low+1:]...)
		s.parked = append(s.parked, victim)
	}
}

// feasible simulates serving reqs in order from (now, head) and reports
// whether every deadline is met at service start.
func (s *legacyKamel) feasible(reqs []*core.Request, now int64, head int) bool {
	t := now
	h := head
	for _, r := range reqs {
		if t > effDeadline(r) {
			return false
		}
		t += s.est(h, r.Cylinder, r.Size)
		h = r.Cylinder
	}
	return true
}

// Next implements Scheduler.
func (s *legacyKamel) Next(now int64, head int) *core.Request {
	if len(s.active) > 0 {
		r := s.active[0]
		s.active = s.active[1:]
		return r
	}
	if len(s.parked) > 0 {
		r := s.parked[0]
		s.parked = s.parked[1:]
		return r
	}
	return nil
}
