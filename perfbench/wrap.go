package main

import (
	"fmt"
	"time"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
)

// timedSched times a scheduler from outside: Add and Next are the
// policy's own cost, and Each is the queue walk metrics.Collector's
// OnDispatch makes to count priority inversions. A decorator serves one
// cell on one goroutine, so its counters need no synchronization.
type timedSched struct {
	sched.Scheduler
	add, next, each opStat
}

func (t *timedSched) Add(r *core.Request, now int64, head int) {
	t0 := time.Now()
	t.Scheduler.Add(r, now, head)
	t.add.since(t0)
}

func (t *timedSched) Next(now int64, head int) *core.Request {
	t0 := time.Now()
	r := t.Scheduler.Next(now, head)
	t.next.since(t0)
	return r
}

func (t *timedSched) Each(visit func(*core.Request)) {
	t0 := time.Now()
	t.Scheduler.Each(visit)
	t.each.since(t0)
}

// timedRouter times cluster routing decisions.
type timedRouter struct {
	cluster.Router
	route opStat
}

func (t *timedRouter) Route(r *core.Request, nodes []*cluster.Node, now int64) int {
	t0 := time.Now()
	n := t.Router.Route(r, nodes, now)
	t.route.since(t0)
	return n
}

// timedAdmitter times cluster admission rulings and counts admissions.
type timedAdmitter struct {
	cluster.Admitter
	admit    opStat
	admitted int64
}

func (t *timedAdmitter) Admit(class int, now int64) bool {
	t0 := time.Now()
	ok := t.Admitter.Admit(class, now)
	t.admit.since(t0)
	if ok {
		t.admitted++
	}
	return ok
}

// service is one traced disk service: the inputs of disk.ServiceModel.Times
// and the seek and service time the engine charged for them.
type service struct {
	head, cyl     int32
	size          int64
	seek, service int64
}

// traceLog is the sim.Options.Trace hook of a traced cell: it keeps the
// queue depth after every dispatch decision and every service's inputs, so
// the disk layer can be replayed and timed alone after the cell.
type traceLog struct {
	cylinders int
	depth     []uint64 // depth[n] counts decisions that left n queued
	services  []service
	drops     int64
}

func newTraceLog(cylinders, capacity int) *traceLog {
	return &traceLog{cylinders: cylinders, services: make([]service, 0, capacity)}
}

func (l *traceLog) hook(ev sim.TraceEvent) {
	for ev.QueueLen >= len(l.depth) {
		l.depth = append(l.depth, 0)
	}
	l.depth[ev.QueueLen]++
	if ev.Dropped {
		l.drops++
		return
	}
	l.services = append(l.services, service{
		head: int32(ev.Head), cyl: int32(clampCyl(ev.Request.Cylinder, l.cylinders)), size: ev.Request.Size,
		seek: ev.Seek, service: ev.Service,
	})
}

// replay feeds the logged services through m alone and returns the wall
// time it took. It fails if a replayed service costs something other than
// what the engine charged, which would mean the log or the model is wrong.
func (l *traceLog) replay(m disk.ServiceModel) (time.Duration, error) {
	var bad int
	t0 := time.Now()
	for _, s := range l.services {
		seek, svc := m.Times(int(s.head), int(s.cyl), s.size, nil)
		if seek != s.seek || svc != s.service {
			bad++
		}
	}
	el := time.Since(t0)
	if bad > 0 {
		return el, fmt.Errorf("disk replay: %d of %d services cost differently alone", bad, len(l.services))
	}
	return el, nil
}

// layerStats aggregates what the decorators and the trace hook measured
// over the traced cells of a run.
type layerStats struct {
	add, next map[string]*opStat // per policy
	walk      opStat
	cellNS    int64 // summed cell wall time
	schedNS   int64 // summed Add+Next+Each time
	arrived   int64
	depth     []uint64
	disk      opStat
	// dispatches and drops are counted over the first traced round only,
	// so they are exact for the seed.
	dispatches, drops int64
	route, admit      opStat
	admitted          int64
}

func newLayerStats() *layerStats {
	return &layerStats{add: map[string]*opStat{}, next: map[string]*opStat{}}
}

// addCell folds one traced cell's decorator and log counters in.
func (s *layerStats) addCell(policy string, ts []*timedSched, log *traceLog, cellNS, replayNS int64, arrived int64) {
	if s.add[policy] == nil {
		s.add[policy], s.next[policy] = &opStat{}, &opStat{}
	}
	for _, t := range ts {
		s.add[policy].merge(t.add)
		s.next[policy].merge(t.next)
		s.walk.merge(t.each)
		s.schedNS += t.add.ns + t.next.ns + t.each.ns
	}
	s.cellNS += cellNS
	s.arrived += arrived
	for n, c := range log.depth {
		for n >= len(s.depth) {
			s.depth = append(s.depth, 0)
		}
		s.depth[n] += c
	}
	s.disk.ns += replayNS
	s.disk.calls += int64(len(log.services))
}

// depthStats returns the mean and nearest-rank 99th percentile of the
// queue depth over every logged dispatch decision.
func (s *layerStats) depthStats() (mean, p99 float64) {
	var n, sum uint64
	for d, c := range s.depth {
		n += c
		sum += uint64(d) * c
	}
	if n == 0 {
		return 0, 0
	}
	k := uint64(rank(0.99, int(n)))
	var seen uint64
	for d, c := range s.depth {
		seen += c
		if seen >= k {
			p99 = float64(d)
			break
		}
	}
	return float64(sum) / float64(n), p99
}

// setSimLayers reports the layer metrics every simulator workload shares.
// Policies absent from the workload report 0.
func (s *layerStats) setSimLayers(rep *report) {
	walkShare := 0.0
	if s.cellNS > 0 {
		walkShare = float64(s.walk.ns) / float64(s.cellNS)
	}
	rep.set("metrics.walk_ns", s.walk.mean(), "ns")
	rep.set("metrics.walk_share", walkShare, "ratio")
	for _, p := range policies {
		var add, next opStat
		if s.add[p] != nil {
			add, next = *s.add[p], *s.next[p]
		}
		rep.set("sched."+p+".add_ns", add.mean(), "ns")
		rep.set("sched."+p+".next_ns", next.mean(), "ns")
	}
	mean, p99 := s.depthStats()
	rep.set("sched.depth_mean", mean, "count")
	rep.set("sched.depth_p99", p99, "count")
	rep.set("disk.times_ns", s.disk.mean(), "ns")
	rep.set("disk.calls", float64(s.dispatches), "count")
	self := 0.0
	if s.arrived > 0 {
		self = float64(s.cellNS-s.schedNS) / float64(s.arrived)
	}
	rep.set("sim.self_ns_per_req", self, "ns")
	rep.set("sim.dispatches", float64(s.dispatches), "count")
	rep.set("sim.drops", float64(s.drops), "count")
}

// clampCyl clamps a target cylinder into [0, cylinders), as the engine
// and the dispatcher do before a service.
func clampCyl(cyl, cylinders int) int {
	if cyl < 0 {
		return 0
	}
	if cyl >= cylinders {
		return cylinders - 1
	}
	return cyl
}
