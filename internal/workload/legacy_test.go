package workload

// This file preserves the allocating generator bodies verbatim — Open's
// Generate with its per-request genOne, Streams' Generate with its emit
// loop, Spec's Generate with Client.generate, and Replay's Generate — as
// reference implementations for the arena-only generators. Their draw
// order and request fields are the contract: every GenerateArena must
// build a DeepEqual trace (see the *GenerateArenaMatchesGenerate tests and
// FuzzOpenMatchesLegacy). Do not "fix" or modernize this code — its job is
// to stay faithful to the replaced bodies.

import (
	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// legacyOpenGenerate is Open.Generate.
func legacyOpenGenerate(w Open) ([]*core.Request, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(w.Seed)
	var zipf *stats.Zipf
	if w.Dist == Zipf {
		zipf = stats.NewZipf(rng.Split(), w.Levels, 1.0)
	}
	tzipf := w.tenantZipf()
	reqs := make([]*core.Request, 0, w.Count)
	now := int64(0)
	for i := 0; i < w.Count; i++ {
		r := &core.Request{}
		if w.Dims > 0 {
			r.Priorities = make([]int, w.Dims)
		}
		legacyGenOne(w, i, &now, rng, zipf, tzipf, r)
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// legacyGenOne is Open.genOne.
func legacyGenOne(w Open, i int, now *int64, rng *stats.RNG, zipf, tzipf *stats.Zipf, r *core.Request) {
	*now += int64(rng.Exponential(float64(w.MeanInterarrival)))
	r.ID = uint64(i + 1)
	r.Arrival = *now
	r.Size = w.Size
	for k := range r.Priorities {
		r.Priorities[k] = legacyDrawLevel(rng, zipf, w.Dist, w.Levels)
	}
	if w.DeadlineMax > 0 {
		r.Deadline = *now + w.DeadlineMin
		if span := w.DeadlineMax - w.DeadlineMin; span > 0 {
			r.Deadline += int64(rng.Uint64n(uint64(span) + 1))
		}
	}
	if w.SizeMin > 0 && w.SizeMax >= w.SizeMin && w.Dims > 0 && w.Levels > 1 {
		var sum int64
		for _, l := range r.Priorities {
			sum += int64(l)
		}
		r.Size = w.SizeMin + (w.SizeMax-w.SizeMin)*sum/int64(w.Dims*(w.Levels-1))
	}
	if tzipf != nil {
		r.Tenant = tzipf.Draw()
		if w.Classes > 1 {
			r.Class = r.Tenant % w.Classes
		}
	}
	if w.Cylinders > 0 {
		if tzipf != nil && w.TenantZones {
			lo := r.Tenant * w.Cylinders / w.Tenants
			hi := (r.Tenant + 1) * w.Cylinders / w.Tenants
			if hi <= lo {
				hi = lo + 1
			}
			r.Cylinder = lo + rng.Intn(hi-lo)
		} else {
			r.Cylinder = rng.Intn(w.Cylinders)
		}
	}
	if w.WriteFrac > 0 && rng.Float64() < w.WriteFrac {
		r.Write = true
	}
	if w.ValueLevels > 0 {
		r.Value = 1 + rng.Intn(w.ValueLevels)
	}
}

// legacyDrawLevel is drawLevel.
func legacyDrawLevel(rng *stats.RNG, zipf *stats.Zipf, dist PriorityDist, levels int) int {
	switch dist {
	case Normal:
		return rng.NormalLevel(levels, 0.25)
	case Zipf:
		return zipf.Draw()
	default:
		return rng.Intn(levels)
	}
}

// legacyStreamsGenerate is Streams.Generate.
func legacyStreamsGenerate(s Streams) ([]*core.Request, error) {
	burst, err := s.validate()
	if err != nil {
		return nil, err
	}
	var reqs []*core.Request
	legacyStreamsEmit(s, burst, func(r core.Request, level int) {
		q := &core.Request{}
		*q = r
		q.Priorities = []int{level}
		reqs = append(reqs, q)
	})
	sortAndRenumber(reqs)
	return reqs, nil
}

// legacyStreamsEmit is Streams.generate.
func legacyStreamsEmit(s Streams, burst int, emit func(r core.Request, level int)) {
	rng := stats.NewRNG(s.Seed)
	// A stream consumes BitRate bits/s; each block lasts blockPeriod.
	blockPeriod := int64(float64(s.BlockSize*8) / s.BitRate * 1e6)
	period := blockPeriod * int64(burst)

	id := uint64(1)
	for u := 0; u < s.Users; u++ {
		urng := rng.Split()
		level := urng.NormalLevel(s.Levels, 0.25)
		write := urng.Float64() < s.WriteFrac
		cyl := urng.Intn(s.Cylinders)
		phase := int64(urng.Uint64n(uint64(period)))
		for t := phase; t < s.Duration; t += period {
			// Blocks fetched for one playback period share their deadline.
			dl := t + s.DeadlineMin
			if span := s.DeadlineMax - s.DeadlineMin; span > 0 {
				dl += int64(urng.Uint64n(uint64(span) + 1))
			}
			for b := 0; b < burst; b++ {
				emit(core.Request{
					ID:       id,
					Arrival:  t,
					Deadline: dl,
					Cylinder: cyl,
					Size:     s.BlockSize,
					Write:    write,
				}, level)
				id++
				// Sequential file layout: the next block sits on the same
				// or next cylinder; edits occasionally jump elsewhere.
				if urng.Float64() < 0.02 {
					cyl = urng.Intn(s.Cylinders)
				} else if urng.Float64() < 0.5 {
					cyl = (cyl + 1) % s.Cylinders
				}
			}
		}
	}
}

// legacySpecGenerate is Spec.Generate.
func legacySpecGenerate(s Spec) ([]*core.Request, error) {
	dims, err := s.validate()
	if err != nil {
		return nil, err
	}
	reqs := make([]*core.Request, 0, s.Count())
	for ci, c := range s.Clients {
		rng := s.clientRNG(ci)
		base := len(reqs)
		for i := 0; i < c.Count; i++ {
			r := &core.Request{}
			if dims > 0 {
				r.Priorities = make([]int, dims)
			}
			reqs = append(reqs, r)
		}
		legacyClientGenerate(c, rng, func(i int) *core.Request { return reqs[base+i] })
	}
	sortAndRenumber(reqs)
	return reqs, nil
}

// legacyClientGenerate is Client.generate.
func legacyClientGenerate(c Client, rng *stats.RNG, fill func(i int) *core.Request) {
	var zipf *stats.Zipf
	if c.Dist == Zipf {
		zipf = stats.NewZipf(rng.Split(), c.Levels, 1.0)
	}
	burst := c.Burst
	if burst < 1 {
		burst = 1
	}
	lo, hi := c.zone()
	seq := lo // sequential walk position
	now := c.Start
	for i := 0; i < c.Count; i++ {
		if i%burst == 0 {
			now += c.gap(rng, now)
		}
		r := fill(i)
		r.Arrival = now
		r.Size = c.Size
		r.Tenant = c.Tenant
		r.Class = c.Class
		for k := range r.Priorities {
			r.Priorities[k] = legacyDrawLevel(rng, zipf, c.Dist, c.Levels)
		}
		if c.DeadlineMax > 0 {
			r.Deadline = now + c.DeadlineMin
			if span := c.DeadlineMax - c.DeadlineMin; span > 0 {
				r.Deadline += int64(rng.Uint64n(uint64(span) + 1))
			}
		}
		if c.SizeMin > 0 && c.SizeMax >= c.SizeMin && c.Dims > 0 && c.Levels > 1 {
			var sum int64
			for _, l := range r.Priorities {
				sum += int64(l)
			}
			r.Size = c.SizeMin + (c.SizeMax-c.SizeMin)*sum/int64(c.Dims*(c.Levels-1))
		}
		if hi > lo {
			if c.Sequential {
				r.Cylinder = seq
				seq++
				if seq >= hi {
					seq = lo
				}
			} else {
				r.Cylinder = lo + rng.Intn(hi-lo)
			}
		}
		if c.WriteFrac > 0 && rng.Float64() < c.WriteFrac {
			r.Write = true
		}
		if c.ValueLevels > 0 {
			r.Value = 1 + rng.Intn(c.ValueLevels)
		}
	}
}

// legacyReplayGenerate is Replay.Generate.
func legacyReplayGenerate(p *Replay) []*core.Request {
	reqs := make([]*core.Request, len(p.reqs))
	for i := range p.reqs {
		r := &core.Request{}
		*r = p.reqs[i]
		if p.dims > 0 {
			r.Priorities = make([]int, p.dims)
			copy(r.Priorities, p.reqs[i].Priorities)
		}
		reqs[i] = r
	}
	return reqs
}
