package main

import (
	"fmt"
	"sort"
	"time"

	"sfcsched/internal/stats"
)

// roundsSpec describes a simulator workload to measureRounds: a round is
// a fixed grid of cells generated from the seed, so every round simulates
// exactly the same thing and must produce the same digest.
type roundsSpec struct {
	setupS      float64
	genNS, genN int64
	// workers is the runner.Map pool size; 0 marks a workload that runs
	// its cells without the runner.
	workers int
	round   func(traced bool) ([]cellResult, []*tracedCell)
}

// cellResult is what one simulation cell reports back.
type cellResult struct {
	digest     uint64
	arrived    int64
	missed     int64 // dropped + late + admission-dropped
	served     int64
	seek       int64 // µs, summed
	inversions int64
	// waits are the stations' waiting-time samples (arrival to service
	// start, µs), read for the first round's latency metrics.
	waits      []*stats.Summary
	tenants    []tenantShare // cluster cells only
	start, end time.Time
	err        error
}

type tenantShare struct{ arrived, served uint64 }

// tracedCell is the per-layer detail of one traced cell.
type tracedCell struct {
	policy   string
	scheds   []*timedSched
	log      *traceLog
	replayNS int64
	router   *timedRouter
	admitter *timedAdmitter
}

// phase is what a sequence of timed rounds measured.
type phase struct {
	rounds   int
	requests int64
	rps      []float64 // per round
	allocB   uint64
	digest   uint64
	first    []cellResult
	layers   *layerStats
	util     []float64 // per round, when on the runner
	imbal    []float64
}

// runPhase repeats rounds until seconds have passed (at least two rounds)
// and checks every cell.
func runPhase(spec roundsSpec, rep *report, seconds float64, traced bool) phase {
	var ph phase
	if traced {
		ph.layers = newLayerStats()
	}
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	a0 := allocated()
	for ph.rounds < 2 || time.Now().Before(end) {
		t0 := time.Now()
		cells, tcs := spec.round(traced)
		wall := time.Since(t0)
		var reqs int64
		d := newDigest()
		for _, c := range cells {
			rep.op(c.err)
			reqs += c.arrived
			d.u64(c.digest)
		}
		dg := d.sum()
		if ph.rounds == 0 {
			ph.digest, ph.first = dg, cells
		} else if dg != ph.digest {
			rep.fail("round %d digest %016x differs from round 0's %016x", ph.rounds, dg, ph.digest)
		}
		if traced {
			for i, tc := range tcs {
				ph.layers.addCell(tc.policy, tc.scheds, tc.log, int64(cells[i].end.Sub(cells[i].start)), tc.replayNS, cells[i].arrived)
				if tc.router != nil {
					ph.layers.route.merge(tc.router.route)
					ph.layers.admit.merge(tc.admitter.admit)
					ph.layers.admitted += tc.admitter.admitted
				}
				if ph.rounds == 0 {
					ph.layers.dispatches += int64(len(tc.log.services))
					ph.layers.drops += tc.log.drops
				}
			}
		}
		if spec.workers > 0 {
			u, im := workerBalance(cells, spec.workers, wall)
			ph.util, ph.imbal = append(ph.util, u), append(ph.imbal, im)
		}
		ph.rps = append(ph.rps, float64(reqs)/wall.Seconds())
		ph.requests += reqs
		ph.rounds++
	}
	ph.allocB = allocated() - a0
	return ph
}

// workerBalance reconstructs which worker ran which cell from the cells'
// start and end times (a worker starts its next cell right after the
// last one ends) and returns the pool's utilization — summed busy time
// over workers × wall — and its imbalance, the busiest worker's time over
// the mean.
func workerBalance(cells []cellResult, workers int, wall time.Duration) (util, imbalance float64) {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cells[order[a]].start.Before(cells[order[b]].start) })
	free := make([]time.Time, workers)
	busy := make([]time.Duration, workers)
	for _, i := range order {
		c := cells[i]
		// The worker that freed up last before this cell started ran it;
		// failing that (clock skew), the one free the longest.
		pick := -1
		for w := range free {
			if !free[w].After(c.start) && (pick < 0 || free[w].After(free[pick])) {
				pick = w
			}
		}
		if pick < 0 {
			pick = 0
			for w := range free {
				if free[w].Before(free[pick]) {
					pick = w
				}
			}
		}
		free[pick] = c.end
		busy[pick] += c.end.Sub(c.start)
	}
	var sum, max time.Duration
	for _, b := range busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum == 0 {
		return 0, 0
	}
	return sum.Seconds() / (float64(workers) * wall.Seconds()), float64(max) * float64(workers) / float64(sum)
}

// measureRounds runs a simulator workload and reports its metrics: the
// end-to-end set from an untraced phase, or — traced — the per-layer set
// from an untraced half followed by a traced half of the run.
func measureRounds(opt options, rep *report, spec roundsSpec) error {
	seconds := opt.seconds
	if opt.trace {
		seconds /= 2
	}
	plain := runPhase(spec, rep, seconds, false)
	var arrived, missed, served, seek, inv int64
	var tenants []tenantShare
	var waits []float64
	for _, c := range plain.first {
		for _, w := range c.waits {
			waits = append(waits, samples(w)...)
		}
		arrived += c.arrived
		missed += c.missed
		served += c.served
		seek += c.seek
		inv += c.inversions
		for t, ts := range c.tenants {
			for t >= len(tenants) {
				tenants = append(tenants, tenantShare{})
			}
			tenants[t].arrived += ts.arrived
			tenants[t].served += ts.served
		}
	}
	if arrived == 0 || served == 0 || len(waits) == 0 {
		return fmt.Errorf("round simulated nothing: arrived %d, served %d", arrived, served)
	}
	rps := median(plain.rps)
	invPerDispatch := float64(inv) / float64(served)
	jain := jainIndex(tenants)
	rep.note("digest %016x over %d cells per round (%d rounds, all equal)", plain.digest, len(plain.first), plain.rounds)
	sort.Float64s(waits)
	waitQ := func(q float64) float64 { return waits[rank(q, len(waits))-1] }
	var waitSum float64
	for _, w := range waits {
		waitSum += w
	}
	rep.note("latency samples: %d simulated waits of one round", len(waits))
	rep.note("sim: inversions_per_dispatch %.6g", invPerDispatch)
	if len(tenants) > 1 {
		rep.note("sim: jain_fairness %.6g over %d tenants", jain, len(tenants))
	}

	if !opt.trace {
		rep.set("throughput_rps", rps, "1/s")
		rep.set("setup_s", spec.setupS, "s")
		rep.set("latency_us_p50", waitQ(0.50), "us")
		rep.set("latency_us_p99", waitQ(0.99), "us")
		rep.set("alloc_b_per_req", float64(plain.allocB)/float64(plain.requests), "B")
		rep.set("miss_pct", 100*float64(missed)/float64(arrived), "%")
		rep.set("seek_ms_mean", float64(seek)/float64(served)/1e3, "ms")
		rep.set("wait_ms_mean", waitSum/float64(len(waits))/1e3, "ms")
		return nil
	}

	traced := runPhase(spec, rep, seconds, true)
	if traced.digest != plain.digest {
		rep.fail("traced digest %016x differs from untraced %016x: the decorators or the trace hook changed the simulation", traced.digest, plain.digest)
	}
	rep.note("traced digest %016x (%d rounds)", traced.digest, traced.rounds)
	setLayerDefaults(rep)
	ls := traced.layers
	ls.setSimLayers(rep)
	rep.set("metrics.inversions_per_dispatch", invPerDispatch, "count")
	if spec.workers > 0 {
		rep.set("runner.util", median(plain.util), "ratio")
		rep.set("runner.imbalance", median(plain.imbal), "ratio")
	}
	rep.set("workload.gen_ns_per_req", float64(spec.genNS)/float64(spec.genN), "ns")
	if ls.admit.calls > 0 {
		rep.set("cluster.route_ns", ls.route.mean(), "ns")
		rep.set("cluster.admit_ns", ls.admit.mean(), "ns")
		rep.set("cluster.admit_ratio", float64(ls.admitted)/float64(ls.admit.calls), "ratio")
		rep.set("cluster.jain_fairness", jain, "ratio")
	}
	trps := median(traced.rps)
	rep.set("trace.overhead_pct", 100*(rps-trps)/rps, "%")
	return nil
}

// jainIndex is Jain's fairness index over the tenants' served shares
// (served ÷ arrived), as cluster.Result.Jain defines it; 0 without two
// tenants with traffic.
func jainIndex(ts []tenantShare) float64 {
	var sum, sumSq float64
	n := 0
	for _, t := range ts {
		if t.arrived == 0 {
			continue
		}
		x := float64(t.served) / float64(t.arrived)
		sum += x
		sumSq += x * x
		n++
	}
	if n < 2 || sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// perLayer lists every per-layer metric with its unit, in report order.
// Every traced run prints all of them; a layer a workload does not reach
// reports 0.
func perLayer() [][2]string {
	m := [][2]string{
		{"metrics.walk_ns", "ns"}, {"metrics.walk_share", "ratio"},
		{"metrics.inversions_per_dispatch", "count"},
	}
	for _, p := range policies {
		m = append(m, [2]string{"sched." + p + ".add_ns", "ns"}, [2]string{"sched." + p + ".next_ns", "ns"})
	}
	return append(m, [][2]string{
		{"sched.depth_mean", "count"}, {"sched.depth_p99", "count"},
		{"disk.times_ns", "ns"}, {"disk.calls", "count"},
		{"sim.self_ns_per_req", "ns"}, {"sim.dispatches", "count"}, {"sim.drops", "count"},
		{"runner.util", "ratio"}, {"runner.imbalance", "ratio"},
		{"workload.gen_ns_per_req", "ns"},
		{"cluster.route_ns", "ns"}, {"cluster.admit_ns", "ns"}, {"cluster.admit_ratio", "ratio"},
		{"cluster.jain_fairness", "ratio"},
		{"serve.submit_ns_p50", "ns"}, {"serve.submit_ns_p99", "ns"},
		{"serve.queue_wait_us_p50", "us"}, {"serve.queue_wait_us_p99", "us"},
		{"serve.backend_ns", "ns"}, {"serve.complete_lag_us", "us"},
		{"serve.backpressure_waits", "count"}, {"serve.outstanding_mean", "count"},
		{"trace.overhead_pct", "%"},
	}...)
}

// setLayerDefaults puts every per-layer metric in the report at 0, fixing
// the print order; workloads then overwrite the layers they reach.
func setLayerDefaults(rep *report) {
	for _, m := range perLayer() {
		rep.set(m[0], 0, m[1])
	}
}

// samples reads a summary's observations back in ascending order through
// its percentile interface: with n samples, the percentile 100·k/(n-1)
// is the k-th smallest.
func samples(s *stats.Summary) []float64 {
	n := s.N()
	if n <= 1 {
		if n == 1 {
			return []float64{s.Percentile(0)}
		}
		return nil
	}
	out := make([]float64, n)
	for k := range out {
		out[k] = s.Percentile(100 * float64(k) / float64(n-1))
	}
	return out
}
