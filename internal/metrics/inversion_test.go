package metrics

import (
	"fmt"
	"reflect"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// walkInversions is the queue walk Collector.OnDispatch made before the
// level histogram replaced it, kept as the oracle the histogram must
// match: every pending request with a strictly lower raw level than r in
// dimension k is one inversion, over the dimensions both requests carry.
func walkInversions(c *Collector, r *core.Request, pending []*core.Request) {
	for _, w := range pending {
		for k := 0; k < c.dims && k < len(w.Priorities) && k < len(r.Priorities); k++ {
			if w.Priorities[k] < r.Priorities[k] {
				c.InversionsPerDim[k]++
			}
		}
	}
}

// randomRequest draws a priority vector of 0..dims+1 entries with levels
// in [-3, levels+3), so short vectors, extra dimensions, out-of-range
// levels on both sides and duplicates all occur.
func randomRequest(rng *stats.RNG, dims, levels int) *core.Request {
	p := make([]int, rng.Intn(dims+2))
	for k := range p {
		p[k] = rng.Intn(levels+6) - 3
	}
	return &core.Request{Priorities: p}
}

// The histogram counter must agree with the walk on every dispatch of a
// random add/remove sequence, and a collector whose queue drained must
// equal a fresh one: the histogram back at zero, no out-of-range level
// left behind.
func TestInversionCounterMatchesWalk(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := stats.NewRNG(seed)
		dims, levels := 1+rng.Intn(4), 1+rng.Intn(16)
		hist, walk := NewCollector(dims, levels), NewCollector(dims, levels)
		var queue []*core.Request
		for step := 0; step < 400; step++ {
			if len(queue) == 0 || rng.Intn(3) != 0 {
				r := randomRequest(rng, dims, levels)
				queue = append(queue, r)
				hist.OnEnqueue(r)
				continue
			}
			i := rng.Intn(len(queue))
			r := queue[i]
			queue = append(queue[:i], queue[i+1:]...)
			hist.OnDequeue(r)
			hist.OnDispatch(r)
			walkInversions(walk, r, queue)
			if !reflect.DeepEqual(hist.InversionsPerDim, walk.InversionsPerDim) {
				t.Fatalf("seed %d step %d (dims %d, levels %d): histogram %v, walk %v",
					seed, step, dims, levels, hist.InversionsPerDim, walk.InversionsPerDim)
			}
		}
		for _, r := range queue {
			hist.OnDequeue(r)
		}
		hist.InversionsPerDim = walk.InversionsPerDim
		if !reflect.DeepEqual(hist, walk) {
			t.Errorf("seed %d: drained collector differs from a fresh one:\n%+v\n%+v", seed, hist, walk)
		}
	}
}

// Out-of-range levels are compared raw, not clamped: -2 is strictly
// better than every in-range level and than -1, and 7 is worse than 5
// although both sit past the last of 4 levels. Duplicates count once
// each and leave one at a time.
func TestInversionsCompareRawLevels(t *testing.T) {
	c := NewCollector(1, 4)
	lo, hi, mid := &core.Request{Priorities: []int{-2}}, &core.Request{Priorities: []int{7}}, &core.Request{Priorities: []int{2}}
	for _, r := range []*core.Request{lo, lo, hi, mid} {
		c.OnEnqueue(r)
	}
	for _, tc := range []struct {
		level int
		want  uint64
	}{{-3, 0}, {-2, 0}, {-1, 2}, {0, 2}, {3, 3}, {5, 3}, {7, 3}, {8, 4}} {
		c.InversionsPerDim[0] = 0
		c.OnDispatch(&core.Request{Priorities: []int{tc.level}})
		if got := c.InversionsPerDim[0]; got != tc.want {
			t.Errorf("dispatch at level %d: %d inversions, want %d", tc.level, got, tc.want)
		}
	}
	c.OnDequeue(lo)
	c.InversionsPerDim[0] = 0
	c.OnDispatch(&core.Request{Priorities: []int{0}})
	if got := c.InversionsPerDim[0]; got != 1 {
		t.Errorf("after removing one duplicate: %d inversions, want 1", got)
	}
	for _, r := range []*core.Request{lo, hi, mid} {
		c.OnDequeue(r)
	}
	if c.outside != nil {
		t.Errorf("out-of-range levels left behind: %v", c.outside)
	}
}

// Reset empties the queue mirror along with the counters.
func TestResetEmptiesQueueMirror(t *testing.T) {
	c := NewCollector(2, 4)
	c.OnEnqueue(&core.Request{Priorities: []int{1, 9}})
	c.Reset()
	c.OnDispatch(&core.Request{Priorities: []int{3, 20}})
	if c.TotalInversions() != 0 || c.outside != nil {
		t.Errorf("reset collector still sees a queue: %v, %v", c.InversionsPerDim, c.outside)
	}
}

// BenchmarkCollectorDispatch times one dispatch at a fixed queue depth —
// count the inversions of one queued request against the rest — for the
// histogram counter (which also takes the request out and puts it back)
// and for the walk it replaced, at the sweep workloads' shape (3
// dimensions × 8 levels).
func BenchmarkCollectorDispatch(b *testing.B) {
	const dims, levels = 3, 8
	for _, depth := range []int{16, 64, 256, 1024, 4096} {
		rng := stats.NewRNG(uint64(depth))
		queue := make([]*core.Request, depth)
		for i := range queue {
			queue[i] = &core.Request{Priorities: []int{rng.Intn(levels), rng.Intn(levels), rng.Intn(levels)}}
		}
		b.Run(fmt.Sprintf("depth=%d/histogram", depth), func(b *testing.B) {
			c := NewCollector(dims, levels)
			for _, r := range queue {
				c.OnEnqueue(r)
			}
			for i := 0; i < b.N; i++ {
				r := queue[i%depth]
				c.OnDequeue(r)
				c.OnDispatch(r)
				c.OnEnqueue(r)
			}
		})
		b.Run(fmt.Sprintf("depth=%d/walk", depth), func(b *testing.B) {
			c := NewCollector(dims, levels)
			for i := 0; i < b.N; i++ {
				walkInversions(c, queue[i%depth], queue)
			}
		})
	}
}
