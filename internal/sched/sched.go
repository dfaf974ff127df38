// Package sched implements the baseline disk schedulers the paper compares
// against (and generalizes): FCFS, SSTF, SCAN, C-SCAN, EDF, SCAN-EDF,
// FD-SCAN, SCAN-RT, SSEDO, SSEDV, the multi-queue priority scheduler, the
// BUCKET value scheduler, and the deadline-driven multi-priority algorithm
// of Kamel et al. (ICDE 2000).
//
// All schedulers share the Scheduler interface, which core.Scheduler (the
// Cascaded-SFC scheduler) also satisfies, so the simulator can drive any of
// them interchangeably.
package sched

import (
	"sfcsched/internal/core"
)

// Scheduler is a disk-request queue discipline. Add and Next receive the
// current simulation time (microseconds) and head cylinder so schedulers
// can make position- and deadline-aware decisions.
type Scheduler interface {
	// Name returns a display name.
	Name() string
	// Add enqueues a request.
	Add(r *core.Request, now int64, head int)
	// Next removes and returns the next request to serve, or nil if empty.
	Next(now int64, head int) *core.Request
	// Len returns the number of queued requests.
	Len() int
	// Each visits every queued request in unspecified order.
	Each(visit func(*core.Request))
}

// Estimator predicts the service time of a request at cylinder cyl of the
// given size with the head at cylinder head. Feasibility-testing schedulers
// (FD-SCAN, SCAN-RT, Kamel) need one; disk.Model.ServiceTime satisfies it.
// An estimate must be >= 0: FD-SCAN skips an already-expired request
// without asking, since no service time could make it feasible again.
type Estimator func(head, cyl int, size int64) int64

// queue is the shared slice-backed request store used by the schedulers
// that scan their queue at dispatch time. Scans are linear and allocate
// nothing: the deadline-window policies (SSEDO, SSEDV) select their m
// earliest deadlines in one bounded pass into a scratch slice rather than
// sorting the queue, and the scan-ordered policies (SCAN-RT, Kamel) insert
// in place and test feasibility on the live slice.
type queue struct {
	reqs []*core.Request
}

func (q *queue) add(r *core.Request) { q.reqs = append(q.reqs, r) }
func (q *queue) Len() int            { return len(q.reqs) }
func (q *queue) Each(visit func(r *core.Request)) {
	for _, r := range q.reqs {
		visit(r)
	}
}

// insertAt inserts r at index i, shifting the tail up.
func (q *queue) insertAt(i int, r *core.Request) {
	q.reqs = append(q.reqs, nil)
	copy(q.reqs[i+1:], q.reqs[i:])
	q.reqs[i] = r
}

// removeAt removes and returns the request at index i. The vacated tail
// slot is nilled out so served requests become collectible under long
// traces instead of being pinned by the slice's spare capacity.
func (q *queue) removeAt(i int) *core.Request {
	r := q.reqs[i]
	last := len(q.reqs) - 1
	copy(q.reqs[i:], q.reqs[i+1:])
	q.reqs[last] = nil
	q.reqs = q.reqs[:last]
	return r
}

// feasible simulates serving reqs in order from (now, head) under est and
// reports whether every deadline is met at service start.
func feasible(est Estimator, reqs []*core.Request, now int64, head int) bool {
	t := now
	h := head
	for _, r := range reqs {
		if t > effDeadline(r) {
			return false
		}
		t += est(h, r.Cylinder, r.Size)
		h = r.Cylinder
	}
	return true
}

// effDeadline treats "no deadline" as infinitely far away.
func effDeadline(r *core.Request) int64 {
	if r.Deadline == 0 {
		return 1 << 62
	}
	return r.Deadline
}

// absDist returns |a - b|.
func absDist(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
