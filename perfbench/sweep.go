package main

import (
	"fmt"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/stats"
	"sfcsched/internal/workload"
)

// policies are the 14 schedulers of the sweep, in schedsim's order.
var policies = []string{"cascaded", "fcfs", "sstf", "scan", "cscan", "edf", "scan-edf",
	"fd-scan", "scan-rt", "ssedo", "ssedv", "multi-queue", "bucket", "kamel"}

// buildPolicy constructs a scheduler exactly as schedsim's build() does
// with its default flags: Hilbert SFC1, f = 1, R = 3, window 0.02.
func buildPolicy(name string, m *disk.Model, levels, dims int, horizon int64) (sched.Scheduler, error) {
	est := m.ServiceTime
	switch name {
	case "cascaded":
		cfg, err := cascadedConfig(m, levels, dims, horizon)
		if err != nil {
			return nil, err
		}
		return core.NewScheduler("cascaded", cfg,
			core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.02)
	case "fcfs":
		return sched.NewFCFS(), nil
	case "sstf":
		return sched.NewSSTF(), nil
	case "scan":
		return sched.NewSCAN(), nil
	case "cscan":
		return sched.NewCSCAN(), nil
	case "edf":
		return sched.NewEDF(), nil
	case "scan-edf":
		return sched.NewSCANEDF(50_000), nil
	case "fd-scan":
		return sched.NewFDSCAN(est), nil
	case "scan-rt":
		return sched.NewSCANRT(est), nil
	case "ssedo":
		return sched.NewSSEDO(0, 0), nil
	case "ssedv":
		return sched.NewSSEDV(0, 0), nil
	case "multi-queue":
		return sched.NewMultiQueue(levels), nil
	case "bucket":
		return sched.NewBUCKET(), nil
	case "kamel":
		return sched.NewKamel(est), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q", name)
}

// cascadedConfig is schedsim's cascaded encapsulator configuration with
// its default flags.
func cascadedConfig(m *disk.Model, levels, dims int, horizon int64) (core.EncapsulatorConfig, error) {
	cv, err := sfc.New("hilbert", dims, uint32(levels))
	if err != nil {
		return core.EncapsulatorConfig{}, err
	}
	return core.EncapsulatorConfig{
		Curve1: cv, Levels: levels,
		UseDeadline: true, F: 1, DeadlineHorizon: horizon, DeadlineSpan: horizon, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: m.Cylinders,
	}, nil
}

// sweepConfig sizes sweep-deep.
type sweepConfig struct {
	traces       int   // traces (seeds) per round; a round is 14 × traces cells
	requests     int   // requests per trace
	interarrival int64 // mean Poisson gap, µs
	warmup       int   // requests of the first trace each policy runs during set-up
	setups       int
}

func sweepSize(tiny bool) sweepConfig {
	if tiny {
		return sweepConfig{traces: 1, requests: 400, interarrival: 9_000, warmup: 100, setups: 1}
	}
	return sweepConfig{traces: 6, requests: 4_000, interarrival: 20_000, warmup: 2_000, setups: 9}
}

const (
	sweepDims     = 3
	sweepLevels   = 8
	sweepDeadline = 500_000 // relative deadline range [500, 700] ms, schedsim's defaults
	sweepHorizon  = 700_000
)

// sweepSetup is the state a sweep-deep run measures.
type sweepSetup struct {
	model  *disk.Model
	traces [][]*core.Request
	genNS  int64
	genN   int64
}

func newSweepSetup(seed uint64, cfg sweepConfig) (*sweepSetup, error) {
	m, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return nil, err
	}
	s := &sweepSetup{model: m}
	t0 := time.Now()
	for i := 0; i < cfg.traces; i++ {
		tr, err := workload.Open{
			Seed: splitSeed(seed, i), Count: cfg.requests, MeanInterarrival: cfg.interarrival,
			Dims: sweepDims, Levels: sweepLevels,
			DeadlineMin: sweepDeadline, DeadlineMax: sweepHorizon,
			Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 256 << 10,
		}.Generate()
		if err != nil {
			return nil, err
		}
		s.traces = append(s.traces, tr)
	}
	s.genNS = int64(time.Since(t0))
	s.genN = int64(cfg.traces * cfg.requests)
	// Warm-up: every policy once over a prefix of the first trace, so code
	// and allocator caches are hot before the timed rounds.
	for _, p := range policies {
		sc, err := buildPolicy(p, m, sweepLevels, sweepDims, sweepHorizon)
		if err != nil {
			return nil, err
		}
		if _, err := sim.Run(sweepRunConfig(m, sc, nil), s.traces[0][:cfg.warmup]); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func sweepRunConfig(m *disk.Model, sc sched.Scheduler, hook func(sim.TraceEvent)) sim.Config {
	return sim.Config{Disk: m, Scheduler: sc, Options: sim.Options{
		DropLate: true, Dims: sweepDims, Levels: sweepLevels, Seed: 1, Trace: hook,
	}}
}

// cell runs cell i of a round: policy i mod 14 over trace i / 14.
// With tc non-nil the scheduler is wrapped and the trace hook installed.
func (s *sweepSetup) cell(i int, tc *tracedCell) cellResult {
	policy := policies[i%len(policies)]
	trace := s.traces[i/len(policies)]
	res := cellResult{start: time.Now()}
	sc, err := buildPolicy(policy, s.model, sweepLevels, sweepDims, sweepHorizon)
	if err != nil {
		res.err = err
		return res
	}
	var hook func(sim.TraceEvent)
	if tc != nil {
		ts := &timedSched{Scheduler: sc}
		sc = ts
		tc.policy, tc.scheds = policy, []*timedSched{ts}
		tc.log = newTraceLog(s.model.Cylinders, len(trace))
		hook = tc.log.hook
	}
	r, err := sim.Run(sweepRunConfig(s.model, sc, hook), trace)
	res.end = time.Now()
	if err != nil {
		res.err = fmt.Errorf("cell %d (%s): %w", i, policy, err)
		return res
	}
	if tc != nil {
		el, err := tc.log.replay(disk.ServiceModel{Disk: s.model})
		tc.replayNS = int64(el)
		if err != nil {
			res.err = fmt.Errorf("cell %d (%s): %w", i, policy, err)
		}
	}
	// Conservation: every request of the trace arrived and ended served
	// or dropped exactly once. DropLate drops late starts, so none serve
	// late.
	n := uint64(len(trace))
	if r.Arrived != n || r.Served+r.Dropped != n || r.Late != 0 {
		res.err = fmt.Errorf("cell %d (%s): trace %d, arrived %d, served %d + dropped %d, late %d",
			i, policy, n, r.Arrived, r.Served, r.Dropped, r.Late)
	}
	d := newDigest()
	d.str(policy)
	d.u64(r.Arrived, r.Served, r.Dropped, r.Late)
	d.i64(r.SeekTime, r.ServiceTime, r.Makespan, r.HeadTravel)
	d.u64(r.InversionsPerDim...)
	for _, row := range r.MissesPerDimLevel {
		d.u64(row...)
	}
	d.u64(uint64(r.WaitingTimes.N()))
	d.i64(int64(r.WaitingTimes.Sum()))
	res.digest = d.sum()
	res.arrived = int64(r.Arrived)
	res.missed = int64(r.Dropped + r.Late)
	res.served = int64(r.Served)
	res.seek = r.SeekTime
	res.waits = []*stats.Summary{&r.WaitingTimes}
	res.inversions = int64(r.TotalInversions())
	return res
}

func runSweep(opt options, rep *report) error {
	cfg := sweepSize(opt.tiny)
	workers := runner.Workers(0)
	s, setupS, err := timedSetup(cfg.setups, func() (*sweepSetup, error) { return newSweepSetup(opt.seed, cfg) }, nil)
	if err != nil {
		return err
	}
	cells := len(policies) * cfg.traces
	rep.note("sweep-deep: %d policies x %d traces x %d requests = %d cells per round, runner.Map on %d workers",
		len(policies), cfg.traces, cfg.requests, cells, workers)
	round := func(traced bool) ([]cellResult, []*tracedCell) {
		var tcs []*tracedCell
		if traced {
			tcs = make([]*tracedCell, cells)
			for i := range tcs {
				tcs[i] = &tracedCell{}
			}
		}
		out, _ := runner.Map(workers, cells, func(i int) (cellResult, error) {
			var tc *tracedCell
			if traced {
				tc = tcs[i]
			}
			return s.cell(i, tc), nil
		})
		return out, tcs
	}
	return measureRounds(opt, rep, roundsSpec{
		setupS:  setupS,
		genNS:   s.genNS,
		genN:    s.genN,
		workers: workers,
		round:   round,
	})
}
