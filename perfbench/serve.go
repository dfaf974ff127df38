package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/serve"
	"sfcsched/internal/workload"
)

// serveConfig sizes serve-closed.
type serveConfig struct {
	producers int // closed-loop producer goroutines
	window    int // requests each producer keeps outstanding
	// maxQueue is the dispatcher's MaxQueue. Below the producers' combined
	// window it keeps requests blocked in Submit, so the dispatcher's queue
	// stays full and the latencies do not hinge on how fast producers wake.
	maxQueue int
	pool     int // generated requests per producer, reused round-robin
	// warmup is the number of requests each producer submits in the
	// warm-up: a fixed amount of work, so that setup_s follows the
	// serving path's cost rather than a wall-clock allowance.
	warmup  int
	setups  int
	windows int // measurement windows per phase; rates and quantiles are medians over them
}

func serveSize(tiny bool) serveConfig {
	if tiny {
		return serveConfig{producers: 2, window: 8, maxQueue: 8, pool: 256, warmup: 256, setups: 1, windows: 2}
	}
	return serveConfig{producers: 2, window: 32, maxQueue: 32, pool: 1 << 15, warmup: 1 << 15, setups: 3, windows: 20}
}

const (
	// Relative deadlines of the served requests, µs on the dilation-1
	// clock: tight enough that some requests start late.
	serveDeadlineMin = 10
	serveDeadlineMax = 150
	// Latency histograms: 200 ns buckets up to 10 ms.
	latWidth   = 200
	latBuckets = 50_000
	// Submit-time histograms: 10 ns buckets up to 1 ms.
	submitWidth   = 10
	submitBuckets = 100_000
	// warmupLimit caps the warm-up's wall time should the serving path
	// become pathologically slow; normally the warm-up ends by its count.
	warmupLimit = 10 * time.Second
)

// slot is one outstanding-request position of a producer's window. The
// producer owns it between completions; the dispatcher's goroutines only
// write the backend and record timestamps while the request is in flight,
// and the completion channel orders those writes before the producer's
// reads.
type slot struct {
	req                   core.Request
	seq                   uint64
	submitAt, submitRet   time.Time
	backendIn, backendOut time.Time
	recordAt              time.Time
	rec                   serve.Record
}

// serveRig is a started dispatcher with its closed-loop producers' state.
type serveRig struct {
	cfg       serveConfig
	svc       disk.ServiceModel
	templates []*core.Request
	genNS     int64
	warmNS    int64
	clock     *serve.Clock
	disp      *serve.Dispatcher
	metrics   *serve.Metrics
	slots     []slot
	stats     []*loopStats // per producer, reused by every phase
	done      []chan int   // per producer: completed window positions
	cursor    []int        // per producer: next template
	traced    bool         // set only between phases
	stray     atomic.Int64
}

// chargedDisk is the benchmark's serve.Backend: it charges the Table 1
// service model without sleeping, so the run measures the serving path's
// own cost. Traced, it stamps backend entry and exit on the request's slot.
type chargedDisk struct{ rig *serveRig }

func (b chargedDisk) Cylinders() int { return b.rig.svc.Cylinders() }

func (b chargedDisk) Serve(_ context.Context, r *core.Request, head int) (serve.Completion, error) {
	var s *slot
	if b.rig.traced {
		s = &b.rig.slots[r.ID%uint64(len(b.rig.slots))]
		s.backendIn = time.Now()
	}
	seek, svc := b.rig.svc.Times(head, clampCyl(r.Cylinder, b.rig.svc.Cylinders()), r.Size, nil)
	if s != nil {
		s.backendOut = time.Now()
	}
	return serve.Completion{Seek: seek, Service: svc}, nil
}

// onRecord hands each completion record back to the producer owning the
// request. A record no producer is waiting for (a duplicate) would
// overflow the channel; it is counted as a failure instead of blocking.
func (g *serveRig) onRecord(rec serve.Record) {
	now := time.Now()
	i := int(rec.ID % uint64(len(g.slots)))
	s := &g.slots[i]
	s.rec, s.recordAt = rec, now
	select {
	case g.done[i/g.cfg.window] <- i % g.cfg.window:
	default:
		g.stray.Add(1)
	}
}

func newServeRig(seed uint64, cfg serveConfig) (*serveRig, error) {
	m, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return nil, err
	}
	g := &serveRig{cfg: cfg, svc: disk.ServiceModel{Disk: m}, metrics: &serve.Metrics{}}
	t0 := time.Now()
	g.templates, err = workload.Open{
		Seed: splitSeed(seed, 0), Count: cfg.producers * cfg.pool, MeanInterarrival: 1_000,
		Dims: sweepDims, Levels: sweepLevels,
		DeadlineMin: serveDeadlineMin, DeadlineMax: serveDeadlineMax,
		Cylinders: m.Cylinders, SizeMin: 4 << 10, SizeMax: 256 << 10,
	}.Generate()
	if err != nil {
		return nil, err
	}
	g.genNS = int64(time.Since(t0))
	ecfg, err := cascadedConfig(m, sweepLevels, sweepDims, serveDeadlineMax)
	if err != nil {
		return nil, err
	}
	sc, err := core.NewShardedScheduler("cascaded", ecfg, 0)
	if err != nil {
		return nil, err
	}
	if g.clock, err = serve.NewClock(1); err != nil {
		return nil, err
	}
	n := cfg.producers * cfg.window
	g.disp, err = serve.New(serve.Config{
		Sched: sc, Backend: chargedDisk{g}, Clock: g.clock,
		InFlight: 1, MaxQueue: cfg.maxQueue, Metrics: g.metrics, OnRecord: g.onRecord,
	})
	if err != nil {
		return nil, err
	}
	g.slots = make([]slot, n)
	g.cursor = make([]int, cfg.producers)
	for p := 0; p < cfg.producers; p++ {
		// Sized to the window: a producer never has more completions
		// pending than requests outstanding.
		g.done = append(g.done, make(chan int, cfg.window))
		// The histograms are allocated here, not per phase, so that
		// alloc_b_per_req counts only the serving path's allocations.
		st := &loopStats{submit: newHist(submitWidth, submitBuckets), queueWait: newHist(latWidth, latBuckets)}
		for w := 0; w < cfg.windows; w++ {
			st.lat = append(st.lat, newHist(latWidth, latBuckets))
		}
		g.stats = append(g.stats, st)
	}
	g.disp.Start(context.Background())
	warm := newReport()
	t1 := time.Now()
	g.phase(warmupLimit, 1, cfg.warmup, warm)
	g.warmNS = int64(time.Since(t1))
	if warm.failed > 0 || len(warm.problems) > 0 {
		g.drain(warm)
		return nil, fmt.Errorf("warm-up failed: %v", warm.problems)
	}
	return g, nil
}

// drain shuts the dispatcher down gracefully and checks that it lost,
// dropped or refused nothing.
func (g *serveRig) drain(rep *report) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.disp.Drain(ctx); err != nil {
		rep.fail("drain: %v", err)
	}
	if n := g.metrics.Abandoned.Load(); n > 0 {
		rep.fail("%d requests abandoned", n)
	}
	if n := g.metrics.Rejected.Load(); n > 0 {
		rep.fail("%d submissions rejected", n)
	}
	if n := g.stray.Load(); n > 0 {
		rep.fail("%d completion records matched no outstanding request", n)
	}
	if n := g.metrics.Dropped.Load(); n > 0 {
		rep.fail("%d requests dropped with DropLate off", n)
	}
}

// loopStats is what one producer measured and checked in a phase.
type loopStats struct {
	// attempted counts submissions, failed those that did not end in
	// exactly one completion record.
	attempted, failed int64
	problems          []string
	lat               []*hist // per window, Submit → completion record
	completed         int64   // over the whole phase
	missed            int64
	seekSum           int64
	waitSum           int64
	// Traced only.
	submit, queueWait  *hist
	backend, lag       opStat
	outstanding, polls int64
}

// reset clears st for a phase of the given number of windows (at most
// the configured number), keeping its histograms.
func (st *loopStats) reset(windows int) {
	*st = loopStats{lat: st.lat[:windows], submit: st.submit, queueWait: st.queueWait}
	for _, h := range st.lat {
		h.reset()
	}
	st.submit.reset()
	st.queueWait.reset()
}

// phase runs the closed loop and returns the per-producer stats, which
// stay valid until the next phase. Each producer stops submitting once d
// has passed or, if quota > 0, once it has submitted quota requests.
// Completions are binned into windows of d/windows by record time.
func (g *serveRig) phase(d time.Duration, windows, quota int, rep *report) []*loopStats {
	stats := g.stats
	t0 := time.Now()
	end := t0.Add(d)
	winLen := d / time.Duration(windows)
	// A request that never completes would stall its producer; abort
	// the phase well after its planned end instead of hanging.
	abort := make(chan struct{})
	watchdog := time.AfterFunc(d+30*time.Second, func() { close(abort) })
	defer watchdog.Stop()
	var wg sync.WaitGroup
	for p, st := range stats {
		st.reset(windows)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			g.produce(p, st, t0, end, quota, winLen, abort)
		}(p)
	}
	wg.Wait()
	for _, st := range stats {
		rep.attempted += st.attempted
		rep.failed += st.failed
		rep.problems = append(rep.problems, st.problems...)
	}
	return stats
}

// produce is one closed-loop client: it keeps window requests outstanding
// and submits the next one as soon as one completes, until end or, if
// quota > 0, until it has submitted quota requests.
func (g *serveRig) produce(p int, st *loopStats, t0, end time.Time, quota int, winLen time.Duration, abort <-chan struct{}) {
	ctx := context.Background()
	w := g.cfg.window
	n := uint64(len(g.slots))
	fail := func(err error) {
		st.attempted++
		st.failed++
		if len(st.problems) < 20 {
			st.problems = append(st.problems, err.Error())
		}
	}
	sent := 0
	more := func() bool { return time.Now().Before(end) && (quota == 0 || sent < quota) }
	submit := func(k int) bool {
		sent++
		i := p*w + k
		s := &g.slots[i]
		tm := g.templates[p*g.cfg.pool+g.cursor[p]%g.cfg.pool]
		g.cursor[p]++
		s.seq++
		now := g.clock.Now()
		s.req = core.Request{
			ID: s.seq*n + uint64(i), Priorities: tm.Priorities,
			Cylinder: tm.Cylinder, Size: tm.Size, Arrival: now,
		}
		if tm.Deadline > 0 {
			s.req.Deadline = now + tm.Deadline - tm.Arrival
		}
		if g.traced {
			st.outstanding += int64(g.disp.Outstanding())
			st.polls++
		}
		s.submitAt = time.Now()
		err := g.disp.SubmitAt(ctx, &s.req, now)
		if g.traced {
			s.submitRet = time.Now()
		}
		if err != nil {
			fail(fmt.Errorf("submit: %w", err))
			return false
		}
		return true
	}
	out := 0
	for k := 0; k < w && more(); k++ {
		if submit(k) {
			out++
		}
	}
	for out > 0 {
		var k int
		select {
		case k = <-g.done[p]:
		case <-abort:
			fail(fmt.Errorf("producer %d: %d requests never completed", p, out))
			return
		}
		out--
		s := &g.slots[p*w+k]
		var err error
		switch {
		case s.rec.ID != s.req.ID:
			err = fmt.Errorf("record for request %d arrived at the slot of %d", s.rec.ID, s.req.ID)
		case s.rec.Dropped || s.rec.Abandoned:
			err = fmt.Errorf("request %d ended dropped=%v abandoned=%v", s.req.ID, s.rec.Dropped, s.rec.Abandoned)
		}
		if err != nil {
			fail(err)
		} else {
			st.attempted++
		}
		st.completed++
		if win := int(s.recordAt.Sub(t0) / winLen); win < len(st.lat) {
			st.lat[win].add(int64(s.recordAt.Sub(s.submitAt)))
		}
		if s.req.Deadline > 0 && s.rec.Dispatch > s.req.Deadline {
			st.missed++
		}
		st.seekSum += s.rec.Seek
		st.waitSum += s.rec.Dispatch - s.rec.Arrival
		if g.traced {
			st.submit.add(int64(s.submitRet.Sub(s.submitAt)))
			st.queueWait.add(int64(s.backendIn.Sub(s.submitRet)))
			st.backend.ns += int64(s.backendOut.Sub(s.backendIn))
			st.backend.calls++
			st.lag.ns += int64(s.recordAt.Sub(s.backendOut))
			st.lag.calls++
		}
		if more() && submit(k) {
			out++
		}
	}
}

// servePhase is the merged measurement of one phase.
type servePhase struct {
	rps, p50, p99 float64 // medians over windows
	samples       uint64
	completed     int64
	allocB        uint64
	missed        int64
	seekSum       int64
	waitSum       int64
	stats         []*loopStats
}

func (g *serveRig) measure(seconds float64, rep *report) servePhase {
	d := time.Duration(seconds * float64(time.Second))
	a0 := allocated()
	stats := g.phase(d, g.cfg.windows, 0, rep)
	ph := servePhase{allocB: allocated() - a0, stats: stats}
	winSec := (d / time.Duration(g.cfg.windows)).Seconds()
	var rps, p50, p99 []float64
	for w := 0; w < g.cfg.windows; w++ {
		h := newHist(latWidth, latBuckets)
		for _, st := range stats {
			h.merge(st.lat[w])
		}
		ph.samples += h.n
		rps = append(rps, float64(h.n)/winSec)
		p50 = append(p50, h.quantile(0.50)/1e3)
		p99 = append(p99, h.quantile(0.99)/1e3)
	}
	ph.rps, ph.p50, ph.p99 = median(rps), median(p50), median(p99)
	for _, st := range stats {
		ph.completed += st.completed
		ph.missed += st.missed
		ph.seekSum += st.seekSum
		ph.waitSum += st.waitSum
	}
	return ph
}

func runServe(opt options, rep *report) error {
	cfg := serveSize(opt.tiny)
	var drainErrs []string
	discard := func(g *serveRig) {
		r := newReport()
		g.drain(r)
		drainErrs = append(drainErrs, r.problems...)
	}
	g, setupS, err := timedSetup(cfg.setups, func() (*serveRig, error) { return newServeRig(opt.seed, cfg) }, discard)
	if err != nil {
		return err
	}
	for _, e := range drainErrs {
		rep.fail("set-up dispatcher: %s", e)
	}
	rep.note("last set-up: generation %.3g s, warm-up of %d requests %.3g s",
		float64(g.genNS)/1e9, cfg.producers*cfg.warmup, float64(g.warmNS)/1e9)
	rep.note("serve-closed: %d producers x %d outstanding, in-flight 1, MaxQueue %d, dilation 1, %d windows per phase",
		cfg.producers, cfg.window, cfg.maxQueue, cfg.windows)
	seconds := opt.seconds
	if opt.trace {
		seconds /= 2
	}
	plain := g.measure(seconds, rep)
	if plain.completed == 0 || plain.samples == 0 {
		g.drain(rep)
		return errors.New("no request completed")
	}
	rep.note("latency samples: %d in %d windows; quantiles are medians of the per-window quantiles", plain.samples, cfg.windows)
	if !opt.trace {
		g.drain(rep)
		c := float64(plain.completed)
		rep.set("throughput_rps", plain.rps, "1/s")
		rep.set("setup_s", setupS, "s")
		rep.set("latency_us_p50", plain.p50, "us")
		rep.set("latency_us_p99", plain.p99, "us")
		rep.set("alloc_b_per_req", float64(plain.allocB)/c, "B")
		rep.set("miss_pct", 100*float64(plain.missed)/c, "%")
		rep.set("seek_ms_mean", float64(plain.seekSum)/c/1e3, "ms")
		rep.set("wait_ms_mean", float64(plain.waitSum)/c/1e3, "ms")
		return nil
	}
	waits0 := g.metrics.BackpressureWaits.Load()
	g.traced = true
	traced := g.measure(seconds, rep)
	g.traced = false
	waits := g.metrics.BackpressureWaits.Load() - waits0
	g.drain(rep)
	setLayerDefaults(rep)
	sub, qw := newHist(submitWidth, submitBuckets), newHist(latWidth, latBuckets)
	var backend, lag opStat
	var outstanding, polls int64
	for _, st := range traced.stats {
		sub.merge(st.submit)
		qw.merge(st.queueWait)
		backend.merge(st.backend)
		lag.merge(st.lag)
		outstanding += st.outstanding
		polls += st.polls
	}
	rep.set("workload.gen_ns_per_req", float64(g.genNS)/float64(len(g.templates)), "ns")
	rep.set("serve.submit_ns_p50", sub.quantile(0.50), "ns")
	rep.set("serve.submit_ns_p99", sub.quantile(0.99), "ns")
	rep.set("serve.queue_wait_us_p50", qw.quantile(0.50)/1e3, "us")
	rep.set("serve.queue_wait_us_p99", qw.quantile(0.99)/1e3, "us")
	rep.set("serve.backend_ns", backend.mean(), "ns")
	rep.set("serve.complete_lag_us", lag.mean()/1e3, "us")
	rep.set("serve.backpressure_waits", float64(waits), "count")
	if polls > 0 {
		rep.set("serve.outstanding_mean", float64(outstanding)/float64(polls), "count")
	}
	rep.set("trace.overhead_pct", 100*(plain.rps-traced.rps)/plain.rps, "%")
	return nil
}
