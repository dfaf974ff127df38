// Package metrics collects the evaluation quantities of the paper's §5-6:
// per-dimension priority inversions (Figs. 5-7, 10a), deadline misses per
// priority level and dimension (Figs. 8-10b), seek time (Fig. 10c),
// fairness (stddev of per-dimension inversions, Fig. 7a) and the §6
// weighted-loss cost function (Fig. 11).
package metrics

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// Collector accumulates run metrics. Create one per simulation run.
//
// Inversions are counted without walking the queue. The collector mirrors
// the queue it observes (OnEnqueue/OnDequeue) as a per-dimension
// histogram of pending requests by level, so a dispatch's §5.1 count is a
// prefix sum over at most Levels() buckets per dimension. Inversions
// compare raw levels: a level outside [0, Levels()) is kept as is, beside
// the histogram, and counts against every in-range level it is strictly
// below. The miss and request tables instead clamp such a level into the
// nearest tracked one.
type Collector struct {
	dims   int
	levels int

	// pending[k*levels+l] counts the queued requests whose level in
	// dimension k is l; outside holds the queued levels that fall outside
	// [0, levels), nil when there are none.
	pending []uint64
	outside []outsideLevel

	// InversionsPerDim[k] counts, summed over every dispatch, the pending
	// requests that had strictly higher priority than the dispatched one
	// in dimension k (the paper's §5.1 definition).
	InversionsPerDim []uint64

	// MissesPerDimLevel[k][l] counts deadline misses of requests whose
	// priority in dimension k was level l.
	MissesPerDimLevel [][]uint64
	// RequestsPerDimLevel[k][l] counts all arrived requests by level.
	RequestsPerDimLevel [][]uint64

	Arrived uint64
	Served  uint64
	Dropped uint64 // deadline passed before service started
	Late    uint64 // served, but finished after the deadline

	// FaultAttempts counts service attempts that failed on an injected
	// fault; their seek and busy time still accrue to SeekTime and
	// ServiceTime (the head moved and the disk was occupied).
	FaultAttempts uint64
	// FaultDropped counts the subset of Dropped attributable to faults
	// (retry budget exhausted, deadline expired during a retry backoff, or
	// stranded on a failed disk). Dropped - FaultDropped is the share
	// attributable to load alone.
	FaultDropped uint64

	SeekTime     int64 // total head-movement time, µs
	ServiceTime  int64 // total busy time, µs
	Makespan     int64 // completion time of the run, µs
	WaitingTimes stats.Summary
}

// outsideLevel is one queued out-of-range level of dimension dim.
type outsideLevel struct{ dim, level int }

// NewCollector returns a collector for requests with the given number of
// priority dimensions and levels per dimension.
func NewCollector(dims, levels int) *Collector {
	if dims < 0 {
		dims = 0
	}
	if levels < 1 {
		levels = 1
	}
	c := &Collector{
		dims:                dims,
		levels:              levels,
		pending:             make([]uint64, dims*levels),
		InversionsPerDim:    make([]uint64, dims),
		MissesPerDimLevel:   make([][]uint64, dims),
		RequestsPerDimLevel: make([][]uint64, dims),
	}
	for k := 0; k < dims; k++ {
		c.MissesPerDimLevel[k] = make([]uint64, levels)
		c.RequestsPerDimLevel[k] = make([]uint64, levels)
	}
	return c
}

// Reset clears every counter in place, retaining the per-dimension slices
// and the waiting-time sample buffer, so a collector can be recycled
// across runs (sim.Reuse) instead of reallocated. The dims/levels shape is
// unchanged; a run needing a different shape needs a new collector. The
// queue mirror is emptied too: a reset collector observes an empty queue.
func (c *Collector) Reset() {
	clear(c.pending)
	c.outside = nil
	clear(c.InversionsPerDim)
	for k := range c.MissesPerDimLevel {
		clear(c.MissesPerDimLevel[k])
		clear(c.RequestsPerDimLevel[k])
	}
	c.Arrived, c.Served, c.Dropped, c.Late = 0, 0, 0, 0
	c.FaultAttempts, c.FaultDropped = 0, 0
	c.SeekTime, c.ServiceTime, c.Makespan = 0, 0, 0
	c.WaitingTimes.Reset()
}

// Dims returns the number of tracked priority dimensions.
func (c *Collector) Dims() int { return c.dims }

// Levels returns the number of priority levels per dimension.
func (c *Collector) Levels() int { return c.levels }

// clampLevel folds out-of-range levels into the tracked range for the miss
// and request tables; inversion counting keeps the raw level.
func (c *Collector) clampLevel(l int) int {
	if l < 0 {
		return 0
	}
	if l >= c.levels {
		return c.levels - 1
	}
	return l
}

// OnArrival records an arriving request.
func (c *Collector) OnArrival(r *core.Request) {
	c.Arrived++
	for k := 0; k < c.dims && k < len(r.Priorities); k++ {
		c.RequestsPerDimLevel[k][c.clampLevel(r.Priorities[k])]++
	}
}

// OnEnqueue records that r joined the queue whose dispatches this
// collector counts: r becomes a candidate for §5.1 inversions until
// OnDequeue removes it. In-range levels go to the per-dimension
// histogram; out-of-range ones are kept raw, because inversions compare
// raw levels.
func (c *Collector) OnEnqueue(r *core.Request) {
	for k := 0; k < c.dims && k < len(r.Priorities); k++ {
		l := r.Priorities[k]
		if l >= 0 && l < c.levels {
			c.pending[k*c.levels+l]++
			continue
		}
		c.outside = append(c.outside, outsideLevel{dim: k, level: l})
	}
}

// OnDequeue records that r left the queue, whether it is about to be
// dispatched, dropped or re-routed. Every OnEnqueue needs exactly one
// OnDequeue.
func (c *Collector) OnDequeue(r *core.Request) {
	for k := 0; k < c.dims && k < len(r.Priorities); k++ {
		l := r.Priorities[k]
		if l >= 0 && l < c.levels {
			c.pending[k*c.levels+l]--
			continue
		}
		c.removeOutside(k, l)
	}
}

// removeOutside forgets one queued out-of-range level l of dimension k.
// The slice returns to nil once empty, so a drained collector compares
// equal to a fresh one.
func (c *Collector) removeOutside(k, l int) {
	for i, o := range c.outside {
		if o.dim == k && o.level == l {
			last := len(c.outside) - 1
			c.outside[i] = c.outside[last]
			c.outside = c.outside[:last]
			break
		}
	}
	if len(c.outside) == 0 {
		c.outside = nil
	}
}

// OnDispatch records the dispatch of r, which OnDequeue has already taken
// out of the queue. It accumulates the per-dimension priority inversions
// caused by serving r ahead of the requests still queued: in dimension k,
// those with a strictly lower level than r.Priorities[k], counted over
// the dimensions both carry. The count is a prefix sum of the level
// histogram plus a scan of the (normally empty) out-of-range levels, so
// it costs O(dims·levels) whatever the queue depth.
func (c *Collector) OnDispatch(r *core.Request) {
	for k := 0; k < c.dims && k < len(r.Priorities); k++ {
		p := r.Priorities[k]
		var n uint64
		for _, v := range c.pending[k*c.levels : k*c.levels+max(0, min(p, c.levels))] {
			n += v
		}
		for _, o := range c.outside {
			if o.dim == k && o.level < p {
				n++
			}
		}
		c.InversionsPerDim[k] += n
	}
}

// OnServed records a completed service.
func (c *Collector) OnServed(r *core.Request, seek, service, start int64) {
	c.Served++
	c.SeekTime += seek
	c.ServiceTime += service
	c.WaitingTimes.Add(float64(start - r.Arrival))
}

// OnFaultAttempt records a service attempt that failed on an injected
// fault: the attempt's seek and busy time are charged, but nothing is
// served.
func (c *Collector) OnFaultAttempt(seek, service int64) {
	c.FaultAttempts++
	c.SeekTime += seek
	c.ServiceTime += service
}

// OnFaultDropped attributes the latest drop to faults rather than load.
// Callers invoke it alongside OnDropped, so FaultDropped <= Dropped.
func (c *Collector) OnFaultDropped() {
	c.FaultDropped++
}

// OnDropped records a request whose deadline expired before service.
func (c *Collector) OnDropped(r *core.Request) {
	c.Dropped++
	c.recordMiss(r)
}

// OnLate records a request served past its deadline.
func (c *Collector) OnLate(r *core.Request) {
	c.Late++
	c.recordMiss(r)
}

func (c *Collector) recordMiss(r *core.Request) {
	for k := 0; k < c.dims && k < len(r.Priorities); k++ {
		c.MissesPerDimLevel[k][c.clampLevel(r.Priorities[k])]++
	}
}

// TotalInversions returns the inversion count summed over dimensions.
func (c *Collector) TotalInversions() uint64 {
	var t uint64
	for _, v := range c.InversionsPerDim {
		t += v
	}
	return t
}

// TotalMisses returns dropped plus late requests.
func (c *Collector) TotalMisses() uint64 { return c.Dropped + c.Late }

// MissRatio returns misses as a fraction of arrivals.
func (c *Collector) MissRatio() float64 {
	if c.Arrived == 0 {
		return 0
	}
	return float64(c.TotalMisses()) / float64(c.Arrived)
}

// FairnessStdDev returns the standard deviation of the per-dimension
// inversion counts — the paper's Fig. 7a fairness measure. Lower is fairer.
func (c *Collector) FairnessStdDev() float64 {
	vs := make([]float64, len(c.InversionsPerDim))
	for i, v := range c.InversionsPerDim {
		vs[i] = float64(v)
	}
	_, sd := stats.MeanStdDev(vs)
	return sd
}

// FavoredDim returns the dimension with the fewest inversions and its
// count — the paper's Fig. 7b "favored dimension".
func (c *Collector) FavoredDim() (dim int, inversions uint64) {
	if len(c.InversionsPerDim) == 0 {
		return -1, 0
	}
	dim = 0
	for k, v := range c.InversionsPerDim {
		if v < c.InversionsPerDim[dim] {
			dim = k
		}
	}
	return dim, c.InversionsPerDim[dim]
}

// LinearWeights returns the §6 cost weights for the collector's levels:
// decreasing linearly from ratio at level 0 (highest priority) to 1 at the
// lowest level. The paper uses ratio 11.
//
// The levels == 1 degenerate case returns [ratio], not [1]: a single level
// is the highest priority level, and pinning it to ratio keeps the cost of
// a miss continuous as a configuration collapses from 2 levels to 1
// (weights [ratio, 1] -> [ratio]) instead of snapping the only weight to
// the lowest-priority value. Absolute §6 costs for levels == 1 are scaled
// by ratio accordingly; comparisons across schedulers are unaffected.
func LinearWeights(levels int, ratio float64) []float64 {
	w := make([]float64, levels)
	for i := range w {
		if levels == 1 {
			w[i] = ratio
			continue
		}
		w[i] = 1 + (ratio-1)*float64(levels-1-i)/float64(levels-1)
	}
	return w
}

// WeightedLossCost returns the §6 cost function over dimension dim:
// sum_i w_i * m_i / r_i, with empty levels contributing zero.
func (c *Collector) WeightedLossCost(dim int, weights []float64) (float64, error) {
	if dim < 0 || dim >= c.dims {
		return 0, fmt.Errorf("metrics: dimension %d out of range [0,%d)", dim, c.dims)
	}
	if len(weights) != c.levels {
		return 0, fmt.Errorf("metrics: %d weights for %d levels", len(weights), c.levels)
	}
	var cost float64
	for l := 0; l < c.levels; l++ {
		r := c.RequestsPerDimLevel[dim][l]
		if r == 0 {
			continue
		}
		cost += weights[l] * float64(c.MissesPerDimLevel[dim][l]) / float64(r)
	}
	return cost, nil
}
