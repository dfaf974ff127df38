package main

import (
	"fmt"
	"sync"
	"time"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// clusterConfig sizes cluster-mixed.
type clusterConfig struct {
	traces   int // mixed-scenario traces per round, one cell each
	requests int // requests per trace
	// speedup divides every client's mean interarrival time of the canned
	// scenario, raising its offered load onto eight disks.
	speedup int64
	setups  int
}

func clusterSize(tiny bool) clusterConfig {
	if tiny {
		return clusterConfig{traces: 2, requests: 400, speedup: 12, setups: 1}
	}
	return clusterConfig{traces: 32, requests: 3_000, speedup: 4, setups: 9}
}

const (
	// clusterWorkers goroutines share a round's cells, cell i going to
	// goroutine i mod clusterWorkers, so each does the same work every
	// round. Not through runner.Map: the runner layer is sweep-deep's.
	clusterWorkers = 2
	clusterNodes   = 4
	clusterDisks   = 2
	clusterClass   = 3
	// Token buckets per SLO class: refill tokens/s and burst.
	clusterRate  = 140
	clusterBurst = 20
)

type clusterSetup struct {
	model  *disk.Model
	traces [][]*core.Request
	dims   int
	genNS  int64
	genN   int64
}

func newClusterSetup(seed uint64, cfg clusterConfig) (*clusterSetup, error) {
	m, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return nil, err
	}
	s := &clusterSetup{model: m}
	blocks := clusterNodes * clusterDisks * m.Cylinders
	t0 := time.Now()
	for i := 0; i < cfg.traces; i++ {
		spec, err := workload.ScenarioSpec("mixed", splitSeed(seed, i), cfg.requests, blocks)
		if err != nil {
			return nil, err
		}
		for c := range spec.Clients {
			spec.Clients[c].MeanInterarrival /= cfg.speedup
		}
		tr, err := spec.Generate()
		if err != nil {
			return nil, err
		}
		s.traces = append(s.traces, tr)
		s.dims = spec.Dims()
	}
	s.genNS = int64(time.Since(t0))
	s.genN = int64(cfg.traces * cfg.requests)
	// Warm-up: one untimed round.
	for i := range s.traces {
		if r := s.cell(i, nil); r.err != nil {
			return nil, r.err
		}
	}
	return s, nil
}

// cell runs trace i through the cluster. With tc non-nil the member
// schedulers, router and admitter are wrapped and the trace hook
// installed.
func (s *clusterSetup) cell(i int, tc *tracedCell) cellResult {
	trace := s.traces[i]
	res := cellResult{start: time.Now()}
	var router cluster.Router = cluster.LeastLoaded{}
	admit, err := cluster.NewTokenBucket(clusterClass, clusterRate, clusterBurst)
	if err != nil {
		res.err = err
		return res
	}
	cfg := cluster.Config{
		Nodes: clusterNodes, DisksPerNode: clusterDisks, Disk: s.model,
		NewScheduler: func(int, int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil },
		Router:       router, Admission: admit,
		Classes: clusterClass, Seed: 1, DropLate: true,
		Dims: s.dims, Levels: 8,
		Metrics: &cluster.Metrics{},
	}
	if tc != nil {
		tc.policy = "scan-edf"
		tc.log = newTraceLog(s.model.Cylinders, len(trace))
		tc.router = &timedRouter{Router: router}
		tc.admitter = &timedAdmitter{Admitter: admit}
		cfg.Router, cfg.Admission, cfg.Trace = tc.router, tc.admitter, tc.log.hook
		cfg.NewScheduler = func(int, int) (sched.Scheduler, error) {
			ts := &timedSched{Scheduler: sched.NewSCANEDF(50_000)}
			tc.scheds = append(tc.scheds, ts)
			return ts, nil
		}
	}
	r, err := cluster.Run(cfg, trace)
	res.end = time.Now()
	if err != nil {
		res.err = fmt.Errorf("cell %d: %w", i, err)
		return res
	}
	if tc != nil {
		el, err := tc.log.replay(disk.ServiceModel{Disk: s.model})
		tc.replayNS = int64(el)
		if err != nil {
			res.err = fmt.Errorf("cell %d: %w", i, err)
		}
	}
	if err := clusterConserves(r, len(trace)); err != nil {
		res.err = fmt.Errorf("cell %d: %w", i, err)
	}
	d := newDigest()
	d.i64(r.Makespan)
	for _, c := range r.PerClass {
		d.u64(c.Arrived, c.Admitted, c.AdmitDropped, c.DispatchDropped, c.Served, c.Late)
		d.i64(c.LatencySum)
		res.arrived += int64(c.Arrived)
		res.missed += int64(c.AdmitDropped + c.DispatchDropped + c.Late)
		res.served += int64(c.Served)
	}
	for _, n := range r.PerNode {
		d.u64(n.Routed, n.Served, n.Dropped)
		d.i64(n.SeekTime, n.BusyTime, n.HeadTravel)
		res.seek += n.SeekTime
	}
	for _, t := range r.Tenants {
		d.u64(t.Arrived, t.Admitted, t.Served)
		res.tenants = append(res.tenants, tenantShare{arrived: t.Arrived, served: t.Served})
	}
	for _, c := range r.PerDisk {
		d.u64(c.InversionsPerDim...)
		res.waits = append(res.waits, &c.WaitingTimes)
		res.inversions += int64(c.TotalInversions())
	}
	res.digest = d.sum()
	return res
}

// clusterConserves checks that every request of the trace arrived once
// and ended in exactly one of admission drop, dispatch drop or service,
// in the per-class ledgers and in the member disks' collectors alike.
func clusterConserves(r *cluster.Result, n int) error {
	var arrived, admitted, ended uint64
	for _, c := range r.PerClass {
		arrived += c.Arrived
		admitted += c.Admitted
		ended += c.AdmitDropped + c.DispatchDropped + c.Served
		if c.Arrived != c.Admitted+c.AdmitDropped || c.Admitted != c.DispatchDropped+c.Served {
			return fmt.Errorf("class %d ledger does not balance: arrived %d, admitted %d, admission-dropped %d, dispatch-dropped %d, served %d",
				c.Class, c.Arrived, c.Admitted, c.AdmitDropped, c.DispatchDropped, c.Served)
		}
	}
	var physArrived, physEnded uint64
	for _, c := range r.PerDisk {
		physArrived += c.Arrived
		physEnded += c.Served + c.Dropped
	}
	if arrived != uint64(n) || ended != arrived || physArrived != admitted || physEnded != admitted {
		return fmt.Errorf("trace %d, arrived %d, ended %d, admitted %d, disks saw %d and ended %d",
			n, arrived, ended, admitted, physArrived, physEnded)
	}
	return nil
}

func runCluster(opt options, rep *report) error {
	cfg := clusterSize(opt.tiny)
	s, setupS, err := timedSetup(cfg.setups, func() (*clusterSetup, error) { return newClusterSetup(opt.seed, cfg) }, nil)
	if err != nil {
		return err
	}
	rep.note("cluster-mixed: %d nodes x %d disks, %d mixed traces x %d requests per round (interarrival / %d), cells on %d goroutines",
		clusterNodes, clusterDisks, cfg.traces, cfg.requests, cfg.speedup, clusterWorkers)
	round := func(traced bool) ([]cellResult, []*tracedCell) {
		out := make([]cellResult, cfg.traces)
		var tcs []*tracedCell
		if traced {
			tcs = make([]*tracedCell, len(out))
			for i := range tcs {
				tcs[i] = &tracedCell{}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < clusterWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(out); i += clusterWorkers {
					var tc *tracedCell
					if traced {
						tc = tcs[i]
					}
					out[i] = s.cell(i, tc)
				}
			}(w)
		}
		wg.Wait()
		return out, tcs
	}
	return measureRounds(opt, rep, roundsSpec{setupS: setupS, genNS: s.genNS, genN: s.genN, round: round})
}
