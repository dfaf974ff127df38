package sched

import (
	"math"

	"sfcsched/internal/core"
)

// SSEDO (Chen, Stankovic, Kurose & Towsley: Shortest Seek and Earliest
// Deadline by Ordering) considers the m earliest-deadline requests and
// serves the one minimizing seek distance weighted by deadline rank:
// candidates with later deadlines must be substantially closer to win.
//
// The 1991 paper leaves the weight schedule as a tunable; this
// reconstruction uses weight Beta^rank with Beta > 1, which preserves the
// published behavior (rank 0 wins unless a later candidate is much closer).
type SSEDO struct {
	queue
	// Window is m, the number of earliest-deadline candidates considered.
	Window int
	// Beta is the per-rank seek-distance penalty (> 1).
	Beta float64
	win  []int // deadlineWindow scratch
}

// NewSSEDO returns an SSEDO scheduler with window m and penalty beta.
// Zero values default to m = 5, beta = 1.5.
func NewSSEDO(m int, beta float64) *SSEDO {
	if m <= 0 {
		m = 5
	}
	if beta <= 1 {
		beta = 1.5
	}
	return &SSEDO{Window: m, Beta: beta}
}

// Name implements Scheduler.
func (s *SSEDO) Name() string { return "ssedo" }

// Add implements Scheduler.
func (s *SSEDO) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *SSEDO) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	cand := deadlineWindow(s.reqs, s.Window, s.win[:0])
	s.win = cand
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

// SSEDV (Shortest Seek and Earliest Deadline by Value) scores the same
// candidate window by a linear blend of deadline slack and seek distance:
// score = Alpha*slack + (1-Alpha)*seek, both normalized to their window
// maxima. Alpha = 1 is pure EDF over the window; Alpha = 0 pure SSTF.
type SSEDV struct {
	queue
	Window int
	Alpha  float64
	win    []int // deadlineWindow scratch
}

// NewSSEDV returns an SSEDV scheduler; zero values default to m = 5,
// alpha = 0.8.
func NewSSEDV(m int, alpha float64) *SSEDV {
	if m <= 0 {
		m = 5
	}
	if alpha <= 0 || alpha > 1 {
		alpha = 0.8
	}
	return &SSEDV{Window: m, Alpha: alpha}
}

// Name implements Scheduler.
func (s *SSEDV) Name() string { return "ssedv" }

// Add implements Scheduler.
func (s *SSEDV) Add(r *core.Request, now int64, head int) { s.add(r) }

// Next implements Scheduler.
func (s *SSEDV) Next(now int64, head int) *core.Request {
	if len(s.reqs) == 0 {
		return nil
	}
	cand := deadlineWindow(s.reqs, s.Window, s.win[:0])
	s.win = cand
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

// deadlineWindow returns the indices of the m earliest-deadline requests,
// ordered by deadline with ties in queue order: the length-m prefix of a
// stable sort by deadline. It selects in one pass, keeping win sorted by
// insertion, so it costs O(len(reqs)·m) and appends into win's storage.
func deadlineWindow(reqs []*core.Request, m int, win []int) []int {
	var bound int64 // deadline of win's last entry once len(win) == m
	for i, r := range reqs {
		d := effDeadline(r)
		if len(win) == m && d >= bound {
			continue
		}
		// Later indices go after equal deadlines, which keeps ties stable.
		j := len(win)
		for j > 0 && effDeadline(reqs[win[j-1]]) > d {
			j--
		}
		if len(win) < m {
			win = append(win, 0)
		}
		copy(win[j+1:], win[j:len(win)-1])
		win[j] = i
		bound = effDeadline(reqs[win[len(win)-1]])
	}
	return win
}
