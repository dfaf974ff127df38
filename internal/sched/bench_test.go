package sched

import (
	"fmt"
	"testing"

	"sfcsched/internal/core"
)

// BenchmarkSchedulerDepth is the per-policy rung of the layer bench
// ladder: one steady-state Add+Next pair at a fixed queue depth, for every
// registry policy. Run with -benchmem; the depth curve shows which linear
// scans earn a better data structure.
func BenchmarkSchedulerDepth(b *testing.B) {
	for _, name := range Names() {
		for _, depth := range []int{16, 64, 256, 1024, 4096} {
			b.Run(fmt.Sprintf("%s/depth=%d", name, depth), func(b *testing.B) {
				st := newSteadyState(MustNew(name, testParams()), depth)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !st.step() {
						b.Fatal("queue drained")
					}
				}
			})
		}
	}
}

// steadyState is a scheduler held at a fixed queue depth: every step
// serves one request and re-adds it with a fresh cylinder and deadline, on
// a clock that advances one nominal 10 ms service time per step. Deadlines
// fall 0.5-1.5 queue drains ahead, so about half of them can be met.
type steadyState struct {
	s     Scheduler
	now   int64
	head  int
	drain int64  // µs to serve the whole queue at the nominal rate
	x     uint64 // LCG state for cylinders and deadlines
}

const steadyServiceTime = 10_000

func newSteadyState(s Scheduler, depth int) *steadyState {
	st := &steadyState{s: s, drain: int64(depth) * steadyServiceTime, x: 1}
	for i := 0; i < depth; i++ {
		r := &core.Request{ID: uint64(i + 1), Size: 64 << 10,
			Priorities: []int{i % 8, (i / 8) % 8}}
		st.refresh(r)
		s.Add(r, st.now, st.head)
	}
	return st
}

// refresh gives r a new cylinder on the Table 1 disk and a new deadline.
func (st *steadyState) refresh(r *core.Request) {
	st.x = st.x*6364136223846793005 + 1442695040888963407
	r.Cylinder = int(st.x>>33) % 3832
	r.Deadline = st.now + st.drain/2 + int64(st.x>>40)%st.drain
}

func (st *steadyState) step() bool {
	r := st.s.Next(st.now, st.head)
	if r == nil {
		return false
	}
	st.head = r.Cylinder
	st.now += steadyServiceTime
	st.refresh(r)
	st.s.Add(r, st.now, st.head)
	return true
}
