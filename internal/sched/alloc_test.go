package sched

import (
	"testing"

	"sfcsched/internal/core"
)

// The deadline-aware policies must not allocate per decision: SSEDO and
// SSEDV select their window into owned scratch, FD-SCAN scans in place,
// and SCAN-RT and Kamel insert into and pop from their own slices.
func TestDeadlineSchedulersSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	for _, name := range []string{"ssedo", "ssedv", "fd-scan", "scan-rt", "kamel"} {
		st := newSteadyState(MustNew(name, testParams()), 256)
		for i := 0; i < 512; i++ { // let slices reach their working capacity
			st.step()
		}
		allocs := testing.AllocsPerRun(200, func() {
			if !st.step() {
				t.Fatalf("%s: queue drained", name)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Add+Next at depth 256 allocates %v per pair", name, allocs)
		}
	}
}

// Regression: a request SCAN-RT or Kamel has served, or Kamel has moved
// to its parked list, must not stay reachable from the backing array it
// left, or the slice pins it for the rest of a long trace.
func TestServedRequestsNotPinned(t *testing.T) {
	reachable := func(backing []*core.Request, r *core.Request) bool {
		for _, q := range backing[:cap(backing)] {
			if q == r {
				return true
			}
		}
		return false
	}
	loose := int64(60_000_000)

	rt := NewSCANRT(testEstimator())
	for _, c := range []int{500, 1500, 1000} {
		rt.Add(rq(uint64(c), c, loose), 0, 0)
	}
	backing := rt.reqs
	if r := rt.Next(0, 0); reachable(backing, r) {
		t.Errorf("scan-rt: served request %d still in the backing array", r.ID)
	}

	k := NewKamel(testEstimator())
	k.Add(&core.Request{ID: 1, Cylinder: 100, Deadline: loose, Size: 64 << 10, Priorities: []int{7}}, 0, 0)
	k.Add(&core.Request{ID: 2, Cylinder: 200, Deadline: loose, Size: 64 << 10, Priorities: []int{1}}, 0, 0)
	// Request 3 is due at once but queues behind both others in scan
	// order, so the eviction loop parks both.
	k.Add(&core.Request{ID: 3, Cylinder: 300, Deadline: 1, Size: 64 << 10, Priorities: []int{0}}, 0, 0)
	if k.parked.Len() != 2 {
		t.Fatalf("kamel: parked %d, want both earlier requests", k.parked.Len())
	}
	victim := k.parked.reqs[0]
	seen := map[*core.Request]int{}
	for _, q := range k.active.reqs[:cap(k.active.reqs)] {
		if q != nil {
			seen[q]++
		}
	}
	if seen[victim] > 0 {
		t.Errorf("kamel: evicted request %d still in the active backing array", victim.ID)
	}
	for q, n := range seen {
		if n > 1 {
			t.Errorf("kamel: request %d appears %d times in the active backing array", q.ID, n)
		}
	}
	active, parked := k.active.reqs, k.parked.reqs
	for k.active.Len() > 0 {
		if r := k.Next(0, 0); reachable(active, r) {
			t.Errorf("kamel: served request %d still in the active backing array", r.ID)
		}
	}
	if r := k.Next(0, 0); r != victim || reachable(parked, r) {
		t.Errorf("kamel: parked request %v served or pinned wrongly", r)
	}
}
