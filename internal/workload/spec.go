package workload

import (
	"fmt"
	"math"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// ArrivalProcess selects the renewal process a client draws inter-arrival
// gaps from. All three are parameterized by the mean gap, so swapping the
// process changes burstiness without changing offered load.
type ArrivalProcess int

const (
	// Poisson draws exponential gaps (CV 1) — the paper's §5 arrivals.
	Poisson ArrivalProcess = iota
	// GammaArrivals draws gamma gaps with a client-chosen shape: shape < 1
	// clumps requests into bursts (CV 1/√k > 1), shape > 1 paces them.
	GammaArrivals
	// WeibullArrivals draws Weibull gaps: shape > 1 approximates periodic
	// issue (rising hazard), shape < 1 heavy-tailed silences.
	WeibullArrivals

	// arrivalProcessCount bounds the enum; the statistical validation test
	// iterates to it so an unvalidated new process fails the build of the
	// test table.
	arrivalProcessCount
)

// String names the process for experiment notes and error messages.
func (p ArrivalProcess) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case GammaArrivals:
		return "gamma"
	case WeibullArrivals:
		return "weibull"
	default:
		return fmt.Sprintf("ArrivalProcess(%d)", int(p))
	}
}

// Window scales a client's arrival rate inside [From, To): the drawn gap
// is divided by Factor, so Factor > 1 is a flash crowd (more arrivals)
// and Factor < 1 a lull. Windows are checked against the clock *before*
// the gap is added, first match wins.
type Window struct {
	From, To int64
	Factor   float64
}

// Client is one cohort of a multi-client Spec: an independent arrival
// process with its own request shape, drawn from a private seed-offset RNG
// stream so adding, removing, or reordering other clients never perturbs
// its draws.
type Client struct {
	// Name labels the cohort in scenario notes; it does not affect draws.
	Name string
	// Count is the number of requests this client issues.
	Count int
	// MeanInterarrival is the mean gap between arrival epochs, µs.
	MeanInterarrival int64
	// Process selects the gap distribution; Shape parameterizes Gamma and
	// Weibull gaps (values <= 0 default to 1, which degenerates both to
	// Poisson).
	Process ArrivalProcess
	Shape   float64
	// Start offsets the client's arrival clock, µs (a cohort that joins
	// late).
	Start int64
	// Burst issues this many requests back-to-back per arrival epoch
	// (values < 1 mean 1).
	Burst int
	// Windows scales the arrival rate over time (flash crowds, diurnal
	// steps).
	Windows []Window
	// Dims and Levels shape the priority vector; Dist selects the level
	// distribution. Every client of a Spec must agree on Dims (the
	// scheduler's parameter space is fixed per run), Levels may differ.
	Dims   int
	Levels int
	Dist   PriorityDist
	// DeadlineMin/Max bound the uniformly drawn relative deadline, µs.
	// Zero disables deadlines.
	DeadlineMin int64
	DeadlineMax int64
	// Cylinders is the disk size; ZoneLo/ZoneHi (when ZoneHi > ZoneLo)
	// confine this client to [ZoneLo, ZoneHi). Sequential replaces uniform
	// placement with a draw-free sequential walk from the zone start (a
	// batch scrub).
	Cylinders  int
	ZoneLo     int
	ZoneHi     int
	Sequential bool
	// Size is the transfer size; SizeMin/SizeMax, when both positive,
	// scale it with the mean priority level as in Open.
	Size    int64
	SizeMin int64
	SizeMax int64
	// WriteFrac is the fraction of writes; ValueLevels assigns uniform
	// application values in [1, ValueLevels] when positive.
	WriteFrac   float64
	ValueLevels int
	// Tenant and Class tag every request of this cohort for the cluster
	// layer's routing, admission, and per-class accounting.
	Tenant int
	Class  int
}

func (c Client) validate(i, dims int) error {
	if c.Count <= 0 {
		return fmt.Errorf("workload: client %d (%s): Count must be positive, got %d", i, c.Name, c.Count)
	}
	if c.MeanInterarrival <= 0 {
		return fmt.Errorf("workload: client %d (%s): MeanInterarrival must be positive", i, c.Name)
	}
	if c.Process < 0 || c.Process >= arrivalProcessCount {
		return fmt.Errorf("workload: client %d (%s): unknown arrival process %d", i, c.Name, c.Process)
	}
	if c.Dims < 0 || c.Levels < 1 {
		return fmt.Errorf("workload: client %d (%s): invalid priority shape dims=%d levels=%d", i, c.Name, c.Dims, c.Levels)
	}
	if c.Dims != dims {
		return fmt.Errorf("workload: client %d (%s): Dims %d differs from the spec's %d; all clients must agree", i, c.Name, c.Dims, dims)
	}
	if c.DeadlineMax < c.DeadlineMin {
		return fmt.Errorf("workload: client %d (%s): DeadlineMax < DeadlineMin", i, c.Name)
	}
	if c.Start < 0 {
		return fmt.Errorf("workload: client %d (%s): Start must be non-negative", i, c.Name)
	}
	if c.ZoneLo != 0 || c.ZoneHi != 0 {
		if c.ZoneHi <= c.ZoneLo || c.ZoneLo < 0 || c.ZoneHi > c.Cylinders {
			return fmt.Errorf("workload: client %d (%s): zone [%d,%d) outside [0,%d)", i, c.Name, c.ZoneLo, c.ZoneHi, c.Cylinders)
		}
	}
	for j, w := range c.Windows {
		if w.To <= w.From || w.Factor <= 0 {
			return fmt.Errorf("workload: client %d (%s): window %d invalid ([%d,%d) factor %g)", i, c.Name, j, w.From, w.To, w.Factor)
		}
	}
	return nil
}

// zone returns the client's cylinder range [lo, hi).
func (c Client) zone() (lo, hi int) {
	if c.ZoneHi > c.ZoneLo {
		return c.ZoneLo, c.ZoneHi
	}
	return 0, c.Cylinders
}

// rateFactor returns the arrival-rate multiplier in effect at time now.
func (c Client) rateFactor(now int64) float64 {
	for _, w := range c.Windows {
		if now >= w.From && now < w.To {
			return w.Factor
		}
	}
	return 1
}

// gap draws the next inter-arrival gap at clock now (window factors are
// evaluated at the pre-gap clock).
func (c Client) gap(rng *stats.RNG, now int64) int64 {
	mean := float64(c.MeanInterarrival)
	shape := c.Shape
	if shape <= 0 {
		shape = 1
	}
	var g float64
	switch c.Process {
	case GammaArrivals:
		g = rng.Gamma(shape, mean/shape)
	case WeibullArrivals:
		g = rng.Weibull(shape, mean/math.Gamma(1+1/shape))
	default:
		g = rng.Exponential(mean)
	}
	return int64(g / c.rateFactor(now))
}

// Spec is a multi-client workload: a set of independent cohorts merged
// into one arrival-ordered trace. Each client draws from its own RNG
// stream derived from Seed by a fixed per-index offset, so the spec is
// deterministic and compositional: client k's requests are identical
// whatever the other clients do.
type Spec struct {
	Seed    uint64
	Clients []Client
}

func (s Spec) validate() (dims int, err error) {
	if len(s.Clients) == 0 {
		return 0, fmt.Errorf("workload: Spec needs at least one client")
	}
	dims = s.Clients[0].Dims
	for i, c := range s.Clients {
		if err := c.validate(i, dims); err != nil {
			return 0, err
		}
	}
	return dims, nil
}

// Count returns the total number of requests the spec generates.
func (s Spec) Count() int {
	n := 0
	for _, c := range s.Clients {
		n += c.Count
	}
	return n
}

// Dims returns the shared priority dimensionality of all clients.
func (s Spec) Dims() int {
	if len(s.Clients) == 0 {
		return 0
	}
	return s.Clients[0].Dims
}

// clientRNG builds client i's private stream. The offset multiplies the
// SplitMix64 golden increment by the 1-based index, so streams are far
// apart for any seed and client 0's stream differs from NewRNG(Seed) —
// the spec never aliases the single-stream generators.
func (s Spec) clientRNG(i int) *stats.RNG {
	return stats.NewRNG(s.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
}

// levelZipf splits the Zipf level stream off rng when c draws Zipf levels;
// otherwise it draws nothing and returns nil.
func (c *Client) levelZipf(rng *stats.RNG) *stats.Zipf {
	if c.Dist != Zipf {
		return nil
	}
	return stats.NewZipf(rng.Split(), c.Levels, 1.0)
}

// draw fills r's drawn fields in the fixed per-request order of every
// generator: priority levels, deadline (relative to r.Arrival), size,
// cylinder in [lo, hi) when hi > lo, write, value. r.Priorities must
// already have length c.Dims, and zipf must come from c.levelZipf.
func (c *Client) draw(rng *stats.RNG, zipf *stats.Zipf, r *core.Request, lo, hi int) {
	for k := range r.Priorities {
		switch c.Dist {
		case Normal:
			r.Priorities[k] = rng.NormalLevel(c.Levels, 0.25)
		case Zipf:
			r.Priorities[k] = zipf.Draw()
		default:
			r.Priorities[k] = rng.Intn(c.Levels)
		}
	}
	if c.DeadlineMax > 0 {
		r.Deadline = r.Arrival + c.DeadlineMin
		if span := c.DeadlineMax - c.DeadlineMin; span > 0 {
			r.Deadline += int64(rng.Uint64n(uint64(span) + 1))
		}
	}
	r.Size = c.Size
	if c.SizeMin > 0 && c.SizeMax >= c.SizeMin && c.Dims > 0 && c.Levels > 1 {
		var sum int64
		for _, l := range r.Priorities {
			sum += int64(l)
		}
		r.Size = c.SizeMin + (c.SizeMax-c.SizeMin)*sum/int64(c.Dims*(c.Levels-1))
	}
	if hi > lo {
		r.Cylinder = lo + rng.Intn(hi-lo)
	}
	if c.WriteFrac > 0 && rng.Float64() < c.WriteFrac {
		r.Write = true
	}
	if c.ValueLevels > 0 {
		r.Value = 1 + rng.Intn(c.ValueLevels)
	}
}

// generate fills the client's requests, in issue order, from its private
// stream: per request an arrival gap (first request of each burst epoch
// only), then the draw fields.
func (c *Client) generate(rng *stats.RNG, reqs []*core.Request) {
	zipf := c.levelZipf(rng)
	burst := max(c.Burst, 1)
	lo, hi := c.zone()
	seq := lo // sequential walk position
	now := c.Start
	for i, r := range reqs {
		if i%burst == 0 {
			now += c.gap(rng, now)
		}
		r.Arrival = now
		r.Tenant = c.Tenant
		r.Class = c.Class
		dlo, dhi := lo, hi
		if c.Sequential && hi > lo {
			// The walk places the cylinder without a draw.
			r.Cylinder, dlo, dhi = seq, 0, 0
			if seq++; seq >= hi {
				seq = lo
			}
		}
		c.draw(rng, zipf, r, dlo, dhi)
	}
}

// GenerateArena builds the merged trace into a's slabs (a nil arena means
// a fresh one), sorted by arrival with IDs reassigned 1..n. It is
// deterministic in the spec.
func (s Spec) GenerateArena(a *Arena) ([]*core.Request, error) {
	dims, err := s.validate()
	if err != nil {
		return nil, err
	}
	if a == nil {
		a = new(Arena)
	}
	reqs := a.alloc(s.Count(), dims)
	base := 0
	for ci := range s.Clients {
		c := &s.Clients[ci]
		c.generate(s.clientRNG(ci), reqs[base:base+c.Count])
		base += c.Count
	}
	sortAndRenumber(reqs)
	return reqs, nil
}

// Generate is GenerateArena into a fresh arena.
func (s Spec) Generate() ([]*core.Request, error) { return s.GenerateArena(nil) }
