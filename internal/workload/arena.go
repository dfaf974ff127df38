package workload

import (
	"sfcsched/internal/core"
)

// Arena is a recyclable backing store for generated traces: one
// contiguous request slab, one shared priority-level backing and the
// pointer view handed to the simulator. Generating a 100k-request trace
// through an arena costs a handful of slab (re)allocations instead of one
// per request, and regenerating into the same arena costs none once the
// slabs have grown to size.
//
// The trace returned by a GenerateArena call is a view into the arena:
// the next generation through the same arena overwrites it. Simulations
// never mutate requests, so one generation can back any number of
// sequential runs; parallel sweep cells each use their own arena (see
// internal/runner). The zero value is ready to use.
type Arena struct {
	reqs []core.Request
	prio []int
	ptrs []*core.Request
}

// alloc returns the pointer view of n zeroed requests, each holding a
// dims-long priority view into the shared backing. Priority slots are not
// zeroed; callers overwrite every one.
func (a *Arena) alloc(n, dims int) []*core.Request {
	a.reqs = resize(a.reqs, n)
	clear(a.reqs)
	a.prio = resize(a.prio, n*dims)
	a.ptrs = resize(a.ptrs, n)
	for i := range a.reqs {
		r := &a.reqs[i]
		if dims > 0 {
			// Three-index views pin each vector's capacity, so an append
			// by a caller can never bleed into its neighbor's levels.
			r.Priorities = a.prio[i*dims : (i+1)*dims : (i+1)*dims]
		}
		a.ptrs[i] = r
	}
	return a.ptrs
}

// resize returns s with length n, reusing its backing array when it is
// large enough. Reused slots keep their old contents.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
