package sim

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/fault"
	"sfcsched/internal/metrics"
	"sfcsched/internal/sched"
	"sfcsched/internal/stats"
)

// ArrayConfig configures a RAID-5 array simulation: logical block requests
// are mapped to physical per-disk operations (reads hit one disk; writes
// perform read-modify-write on the data and parity disks), each disk runs
// its own scheduler instance on its own Station, and the stations proceed
// in parallel on the shared engine timeline.
type ArrayConfig struct {
	// Array maps logical blocks to physical operations. Required.
	Array *disk.RAID5
	// NewScheduler builds the per-disk queue discipline. Required.
	NewScheduler func(diskID int) (sched.Scheduler, error)

	// OnFaulted fires when the planned disk failure (Options.Fault) takes
	// effect; OnRebuilt when the background rebuild completes and the disk
	// rejoins. Both run inline at the exact event time.
	OnFaulted func(diskID int, now int64)
	OnRebuilt func(diskID int, now int64)

	Options
}

// ArrayResult reports a RAID array run.
type ArrayResult struct {
	// Logical accounts whole block requests: a logical request is served
	// when every physical operation completed on time, missed when any
	// operation was dropped or started late.
	Logical *metrics.Collector
	// PerDisk holds one physical collector per disk, fed by the shared
	// engine dispatch path: per-disk inversions, served/dropped/late
	// physical operations, seek and busy time.
	PerDisk []*metrics.Collector
	// SeekTime and BusyTime aggregate over all disks, µs.
	SeekTime int64
	BusyTime int64
	// PerDiskOps counts physical operations enqueued on each disk.
	PerDiskOps []uint64
	// Makespan is the completion time of the run, µs.
	Makespan int64

	// Faults snapshots the fault injector's counters; nil when the run
	// had no (or a zero) fault plan. The degraded-operation counters
	// below are only nonzero with a planned disk failure.
	Faults *fault.Stats
	// Reconstructions counts logical reads of the failed disk served by
	// reconstruction from the surviving disks while it was down.
	Reconstructions uint64
	// AbsorbedWrites counts physical writes to the failed disk that were
	// absorbed (the data is recoverable from parity and rewritten by the
	// rebuild).
	AbsorbedWrites uint64
	// RebuildReads counts survivor reads issued by the background rebuild
	// through the foreground schedulers.
	RebuildReads uint64
	// Shadows holds one divergence report per attached shadow, in
	// Options.Shadows order; empty when the run had none.
	Shadows []ShadowReport
}

// logicalState tracks one in-flight logical request.
type logicalState struct {
	req      *core.Request
	pending  int  // physical ops still outstanding
	missed   bool // any op dropped or started late
	finished bool // logical completion already recorded
	// writeOps holds the deferred write phase of a read-modify-write;
	// enqueued when the read phase drains.
	writeOps  []disk.PhysOp
	readsLeft int
}

// RunArray simulates the logical trace (sorted by arrival) on the array:
// an N-station Engine with the RAID-5 logical/physical mapping layered
// above it through the engine hooks. Physical dispatches flow through the
// same drop/late/service/metrics path as single-disk runs, so array runs
// emit the TraceEvent stream (with DiskID set) and per-disk collectors.
//
// With a fault plan carrying a whole-disk failure, the run degrades at
// FailAt: queued and in-flight operations of the failed disk are
// re-routed (reads reconstruct from the surviving N-1 disks via the
// PhysOp fan-out, writes are absorbed), later arrivals map through
// DegradedRead/DegradedWrite, and the optional background rebuild pushes
// its reconstruction reads through the same per-disk schedulers as
// foreground requests, so rebuild-vs-QoS interference is measurable.
func RunArray(cfg ArrayConfig, logical []*core.Request) (*ArrayResult, error) {
	if cfg.Array == nil || cfg.NewScheduler == nil {
		return nil, fmt.Errorf("sim: ArrayConfig needs Array and NewScheduler")
	}
	model := cfg.Array.Model
	stations := make([]*Station, cfg.Array.Disks)
	perDisk := make([]*metrics.Collector, cfg.Array.Disks)
	for d := range stations {
		s, err := cfg.NewScheduler(d)
		if err != nil {
			return nil, fmt.Errorf("sim: disk %d scheduler: %w", d, err)
		}
		perDisk[d] = metrics.NewCollector(cfg.Dims, cfg.Levels)
		stations[d] = &Station{
			ID:             d,
			Sched:          s,
			Disk:           model,
			Col:            perDisk[d],
			SampleRotation: cfg.SampleRotation,
			// The array models the head position at rest: schedulers see
			// the last completed cylinder until the next completion.
		}
	}
	res := &ArrayResult{
		Logical:    metrics.NewCollector(cfg.Dims, cfg.Levels),
		PerDisk:    perDisk,
		PerDiskOps: make([]uint64, cfg.Array.Disks),
	}
	eng := &Engine{
		Stations:  stations,
		DropLate:  cfg.DropLate,
		RNG:       stats.NewRNG(cfg.Seed),
		Trace:     cfg.Trace,
		Decisions: cfg.Decisions,
		Telemetry: cfg.Telemetry,
	}
	for _, sh := range cfg.Shadows {
		if sh.Station < 0 || sh.Station >= len(stations) {
			return nil, fmt.Errorf("sim: shadow %q targets station %d outside array of %d disks", sh.name, sh.Station, len(stations))
		}
		if sh.used {
			return nil, fmt.Errorf("sim: shadow %q already rode a run; shadows are single-use", sh.name)
		}
		st := stations[sh.Station]
		sh.bind(st, cfg.DropLate)
		st.shadows = append(st.shadows, sh)
	}
	var inj *fault.Injector
	if !cfg.Fault.Zero() {
		if cfg.Fault.FailAt > 0 && (cfg.Fault.FailDisk < 0 || cfg.Fault.FailDisk >= cfg.Array.Disks) {
			return nil, fmt.Errorf("sim: FailDisk %d outside array of %d disks", cfg.Fault.FailDisk, cfg.Array.Disks)
		}
		var err error
		inj, err = fault.New(*cfg.Fault, model.Cylinders)
		if err != nil {
			return nil, err
		}
		eng.Faults = inj
	}

	byPhys := make(map[*core.Request]*logicalState)
	var nextPhysID uint64

	createPhys := func(st *logicalState, op disk.PhysOp, now int64) {
		nextPhysID++
		pr := &core.Request{
			ID:         nextPhysID,
			Priorities: st.req.Priorities,
			Deadline:   st.req.Deadline,
			Cylinder:   op.Cylinder,
			Size:       op.Size,
			Arrival:    now,
			Write:      op.Write,
			Value:      st.req.Value,
		}
		byPhys[pr] = st
		eng.Stations[op.Disk].Enqueue(pr, now)
		res.PerDiskOps[op.Disk]++
	}

	// enqueue issues physical ops, transparently degrading any op that
	// targets the failed disk: writes are absorbed (recoverable from
	// parity), reads fan out into same-cylinder reconstruction reads on
	// every survivor. Callers account pending as one completion per op;
	// enqueue adjusts it for absorbed and fanned-out ops.
	enqueue := func(st *logicalState, ops []disk.PhysOp, now int64) {
		for _, op := range ops {
			if fd, down := downDisk(inj); down && op.Disk == fd {
				if op.Write {
					res.AbsorbedWrites++
					st.pending--
					continue
				}
				res.Reconstructions++
				if inj != nil {
					inj.Metrics().ReconstructReads.Add(uint64(cfg.Array.Disks - 1))
				}
				st.pending += cfg.Array.Disks - 2
				if len(st.writeOps) > 0 {
					st.readsLeft += cfg.Array.Disks - 2
				}
				for d := 0; d < cfg.Array.Disks; d++ {
					if d == fd {
						continue
					}
					createPhys(st, disk.PhysOp{Disk: d, Cylinder: op.Cylinder, Size: op.Size}, now)
				}
				continue
			}
			createPhys(st, op, now)
		}
	}

	finish := func(st *logicalState, now int64) {
		if st.finished {
			return
		}
		st.finished = true
		if st.missed {
			res.Logical.OnDropped(st.req)
		} else {
			res.Logical.OnServed(st.req, 0, 0, now)
		}
	}

	// opDone accounts one completed, dropped or absorbed physical op and
	// fires the deferred write phase or the logical completion when due.
	var opDone func(st *logicalState, now int64, wasRead bool)
	opDone = func(st *logicalState, now int64, wasRead bool) {
		st.pending--
		if wasRead && len(st.writeOps) > 0 {
			st.readsLeft--
			if st.readsLeft == 0 {
				if st.missed {
					// The read phase failed; the write phase is abandoned.
					st.pending -= len(st.writeOps)
					st.writeOps = nil
				} else {
					ops := st.writeOps
					st.writeOps = nil
					enqueue(st, ops, now) // pending already counts them
				}
			}
		}
		if st.pending == 0 {
			finish(st, now)
		}
	}

	// reroute re-issues a physical op stranded on the failed disk
	// (queued at failure time, in flight, or returning from a retry
	// backoff) through the degraded path.
	reroute := func(pr *core.Request, now int64) {
		st := byPhys[pr]
		delete(byPhys, pr)
		op := disk.PhysOp{Disk: cfg.Fault.FailDisk, Cylinder: pr.Cylinder, Size: pr.Size, Write: pr.Write}
		wasRead := !pr.Write
		// An absorbed write completes the op; a read fans out into
		// survivor reads that replace it (pending gains the fan-out and
		// loses the original).
		st.pending++
		if wasRead && len(st.writeOps) > 0 {
			st.readsLeft++
		}
		enqueue(st, []disk.PhysOp{op}, now)
		opDone(st, now, wasRead)
	}

	eng.OnDropped = func(_ *Station, r *core.Request, now int64) {
		st := byPhys[r]
		delete(byPhys, r)
		st.missed = true
		opDone(st, now, !r.Write)
	}
	eng.OnLateStart = func(_ *Station, r *core.Request, _ int64) {
		byPhys[r].missed = true
	}
	eng.OnServed = func(_ *Station, r *core.Request, now int64) {
		st := byPhys[r]
		delete(byPhys, r)
		opDone(st, now, !r.Write)
	}

	if inj != nil && cfg.Fault.FailAt > 0 {
		armFailure(cfg, eng, inj, res, reroute)
	}

	res.Makespan = eng.Run(logical, func(lr *core.Request, now int64) {
		res.Logical.OnArrival(lr)
		st := &logicalState{req: lr}
		block := blockOf(lr)
		var ops []disk.PhysOp
		fd, down := downDisk(inj)
		if lr.Write {
			if down {
				ops = cfg.Array.DegradedWrite(block, fd)
				if s, d, _ := cfg.Array.Layout(block); fd == d || fd == cfg.Array.ParityDisk(s) {
					res.AbsorbedWrites++
				}
			} else {
				ops = cfg.Array.Write(block)
			}
		} else if down {
			ops = cfg.Array.DegradedRead(block, fd)
			if len(ops) > 1 {
				res.Reconstructions++
				inj.Metrics().ReconstructReads.Add(uint64(len(ops)))
			}
		} else {
			ops = cfg.Array.Read(block)
		}
		var phase1 []disk.PhysOp
		for _, op := range ops {
			if op.Write {
				st.writeOps = append(st.writeOps, op)
			} else {
				phase1 = append(phase1, op)
			}
		}
		st.readsLeft = len(phase1)
		st.pending = len(phase1) + len(st.writeOps)
		if len(phase1) == 0 && len(st.writeOps) > 0 {
			// Degraded write with the data disk's read phase absent
			// (parity-only update): no reads gate the write phase.
			w := st.writeOps
			st.writeOps = nil
			enqueue(st, w, now)
		} else {
			enqueue(st, phase1, now)
		}
		if st.pending == 0 {
			finish(st, now)
		}
	})
	for _, c := range perDisk {
		res.SeekTime += c.SeekTime
		res.BusyTime += c.ServiceTime
	}
	if inj != nil {
		fs := inj.Stats()
		res.Faults = &fs
	}
	if len(cfg.Shadows) > 0 {
		res.Shadows = make([]ShadowReport, len(cfg.Shadows))
		for i, sh := range cfg.Shadows {
			res.Shadows[i] = sh.Report()
		}
	}
	return res, nil
}

// armFailure schedules the planned whole-disk failure and, when enabled,
// the background rebuild pump.
func armFailure(cfg ArrayConfig, eng *Engine, inj *fault.Injector, res *ArrayResult,
	reroute func(*core.Request, int64)) {
	k := cfg.Fault.FailDisk
	plan := inj.Plan()

	// Rebuild pump: one stripe row at a time, its survivor reads competing
	// in the same per-disk scheduler queues as foreground requests.
	isRebuild := make(map[*core.Request]bool)
	var nextRebuildID uint64
	rebuildPending := 0
	rebuiltBlocks := 0
	var issueRebuild func(now int64)
	issueRebuild = func(now int64) {
		if rebuiltBlocks >= plan.RebuildBlocks {
			inj.MarkRebuilt(now)
			if cfg.OnRebuilt != nil {
				cfg.OnRebuilt(k, now)
			}
			return
		}
		ops := cfg.Array.RebuildStripe(int64(rebuiltBlocks), k)
		rebuildPending = len(ops)
		for _, op := range ops {
			nextRebuildID++
			// Rebuild reads carry no deadline and no priorities: they are
			// background traffic contending purely on the disk layer.
			pr := &core.Request{ID: 1<<63 | nextRebuildID, Cylinder: op.Cylinder, Size: op.Size, Arrival: now}
			isRebuild[pr] = true
			eng.Stations[op.Disk].Enqueue(pr, now)
			res.PerDiskOps[op.Disk]++
			res.RebuildReads++
			inj.Metrics().RebuildReads.Inc()
		}
	}
	rebuildOpDone := func(now int64) {
		rebuildPending--
		if rebuildPending > 0 {
			return
		}
		rebuiltBlocks++
		inj.Metrics().RebuildProgress.Set(int64(rebuiltBlocks))
		if plan.RebuildInterval > 0 {
			eng.At(now+plan.RebuildInterval, issueRebuild)
		} else {
			issueRebuild(now)
		}
	}

	// Rebuild reads bypass the logical bookkeeping: intercept them before
	// the foreground hooks run.
	onServed, onDropped := eng.OnServed, eng.OnDropped
	eng.OnServed = func(st *Station, r *core.Request, now int64) {
		if isRebuild[r] {
			delete(isRebuild, r)
			rebuildOpDone(now)
			return
		}
		onServed(st, r, now)
	}
	eng.OnDropped = func(st *Station, r *core.Request, now int64) {
		if isRebuild[r] {
			// A rebuild read abandoned by the retry budget: the stripe row
			// proceeds without it (the pump must not stall).
			delete(isRebuild, r)
			rebuildOpDone(now)
			return
		}
		onDropped(st, r, now)
	}
	eng.OnFaulted = func(_ *Station, r *core.Request, now int64) {
		if isRebuild[r] {
			delete(isRebuild, r)
			rebuildOpDone(now)
			return
		}
		reroute(r, now)
	}

	eng.At(plan.FailAt, func(now int64) {
		inj.FailNow(now)
		if cfg.OnFaulted != nil {
			cfg.OnFaulted(k, now)
		}
		// Drain the dead disk's queue, re-routing every stranded op; the
		// in-flight one (if any) is re-routed by its Lost completion.
		st := eng.Stations[k]
		for st.Sched.Len() > 0 {
			pr := st.next(now)
			if pr == nil {
				break
			}
			if isRebuild[pr] {
				delete(isRebuild, pr)
				rebuildOpDone(now)
				continue
			}
			reroute(pr, now)
		}
		if plan.Rebuild {
			issueRebuild(now)
		}
	})
}

// downDisk returns the currently failed disk of inj, if any.
func downDisk(inj *fault.Injector) (int, bool) {
	if inj == nil {
		return 0, false
	}
	return inj.DownDisk()
}

// blockOf returns the logical block number of a request; array workloads
// carry it in the Cylinder field (the array, not the request, decides the
// physical cylinder).
func blockOf(r *core.Request) int64 {
	if r.Cylinder < 0 {
		return 0
	}
	return int64(r.Cylinder)
}
