package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
)

// Errors returned by the submission path.
var (
	// ErrClosed reports a submission refused because the dispatcher's
	// ingress was closed (Drain or Stop has begun).
	ErrClosed = errors.New("serve: scheduler ingress closed")
	// ErrNotStarted reports a submission before Start.
	ErrNotStarted = errors.New("serve: dispatcher not started")
	// ErrStopped reports a submission interrupted by Stop.
	ErrStopped = errors.New("serve: dispatcher stopped")
)

// Config configures a Dispatcher.
type Config struct {
	// Sched is the queue discipline the dispatcher serves: the cascaded
	// core.Scheduler or any baseline of package sched. Required. The
	// dispatcher serializes every Add and Next under its own lock, so the
	// scheduler need not be safe for concurrent use; any number of
	// goroutines may feed it through Submit, and nothing else may touch it
	// while the dispatcher runs.
	Sched sched.Scheduler
	// Backend executes dispatched requests. Required.
	Backend Backend
	// Clock is the dilated model clock submissions and dispatches are
	// timestamped with. Required.
	Clock *Clock
	// InFlight bounds concurrently running backend services; 0 means 1
	// (single-disk semantics — one arm, one service at a time).
	InFlight int
	// MaxQueue bounds the number of submitted-but-incomplete requests;
	// Submit blocks (backpressure) once the bound is reached. 0 means
	// unbounded.
	MaxQueue int
	// DropLate discards requests whose deadline has passed at dispatch
	// time, mirroring the simulator's §6 semantics.
	DropLate bool
	// Metrics overrides the process-wide DefaultMetrics sink.
	Metrics *Metrics
	// KeepRecords accumulates a Record per dispatch decision for later
	// retrieval via Records — calibration runs need them; long-running
	// servers should leave this off (the slice grows without bound) and
	// use OnRecord or the metrics instead.
	KeepRecords bool
	// OnRecord, when non-nil, receives each Record as it is produced.
	// Calls are serialized.
	OnRecord func(Record)
}

// Record is the per-request outcome of one dispatch decision, the serving
// counterpart of the simulator's TraceEvent. Times are model microseconds.
type Record struct {
	// ID is the request's ID.
	ID uint64
	// Seq is the dispatch-order index (0-based) across the run; drops
	// consume a sequence number too, matching the simulator's trace.
	Seq int
	// Arrival is the request's nominal arrival time.
	Arrival int64
	// Dispatch is the model time the dispatch decision was made.
	Dispatch int64
	// Done is the model time the service completed (0 for drops).
	Done int64
	// Head is the head cylinder the service departed from; Target the
	// (clamped) cylinder it seeked to.
	Head, Target int
	// Seek and Service are the backend-reported costs.
	Seek, Service int64
	// Dropped marks a request discarded past its deadline (DropLate).
	Dropped bool
	// Abandoned marks a service cut short by Stop or cancellation.
	Abandoned bool
}

// Dispatcher is the real-clock serving loop: it pops requests from its
// scheduler in the scheduler's dispatch order and executes them against a
// Backend, with a bounded number in flight. The zero value is
// not usable; construct with New, then Start, Submit from any number of
// goroutines, and shut down with Drain (graceful) or Stop (immediate).
type Dispatcher struct {
	cfg Config
	m   *Metrics

	ctx     context.Context
	cancel  context.CancelFunc
	started atomic.Bool
	startMu sync.Mutex
	stopped chan struct{} // closed when the dispatch loop exits
	stop    sync.Once

	// slots is the in-flight semaphore: the loop takes a slot before each
	// dispatch, the worker returns it at completion.
	slots chan struct{}
	// quota is the MaxQueue backpressure semaphore (nil when unbounded):
	// Submit takes, completion/drop/rejection returns.
	quota chan struct{}
	// kick wakes the loop when new work or a completion changes what Next
	// can see; capacity 1, senders never block.
	kick chan struct{}

	// outstanding counts submitted-but-not-yet-finished requests (queued +
	// in flight). The drain handshake keys off it reaching zero. Producers
	// increment it before kicking, so a consumed kick always observes an
	// up-to-date count.
	outstanding atomic.Int64
	draining    atomic.Bool

	// mu serializes the scheduler: producers Add and the loop Next under
	// it. closed shuts the ingress (Drain, Stop); producers check it under
	// mu, so a submission racing shutdown is either queued before the
	// close — and then served, or counted abandoned by Stop — or rejected.
	mu     sync.Mutex
	closed bool

	head    atomic.Int64
	travel  atomic.Int64
	dispSeq int // loop-local dispatch sequence

	workers sync.WaitGroup

	recMu sync.Mutex
	recs  []Record
}

// New validates cfg and builds a dispatcher.
func New(cfg Config) (*Dispatcher, error) {
	if cfg.Sched == nil {
		return nil, fmt.Errorf("serve: dispatcher requires a scheduler")
	}
	if cfg.Backend == nil {
		return nil, fmt.Errorf("serve: dispatcher requires a backend")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("serve: dispatcher requires a clock")
	}
	if cfg.InFlight < 0 {
		return nil, fmt.Errorf("serve: in-flight bound must be >= 0, got %d", cfg.InFlight)
	}
	if cfg.InFlight == 0 {
		cfg.InFlight = 1
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: queue bound must be >= 0, got %d", cfg.MaxQueue)
	}
	m := cfg.Metrics
	if m == nil {
		m = DefaultMetrics
	}
	d := &Dispatcher{
		cfg:     cfg,
		m:       m,
		stopped: make(chan struct{}),
		slots:   make(chan struct{}, cfg.InFlight),
		kick:    make(chan struct{}, 1),
	}
	for i := 0; i < cfg.InFlight; i++ {
		d.slots <- struct{}{}
	}
	if cfg.MaxQueue > 0 {
		d.quota = make(chan struct{}, cfg.MaxQueue)
	}
	return d, nil
}

// Start launches the dispatch loop. The loop runs until Drain completes,
// Stop is called, or ctx is canceled. Start is idempotent; it must precede
// the first Submit.
func (d *Dispatcher) Start(ctx context.Context) {
	d.startMu.Lock()
	defer d.startMu.Unlock()
	if d.started.Load() {
		return
	}
	d.ctx, d.cancel = context.WithCancel(ctx)
	d.started.Store(true)
	go d.loop()
}

// Head returns the current emulated head cylinder.
func (d *Dispatcher) Head() int { return int(d.head.Load()) }

// HeadTravel returns the cumulative emulated head movement, cylinders.
func (d *Dispatcher) HeadTravel() int64 { return d.travel.Load() }

// Outstanding returns the number of submitted-but-unfinished requests.
func (d *Dispatcher) Outstanding() int { return int(d.outstanding.Load()) }

// Submit enqueues r at the current model time. It blocks while the
// MaxQueue backpressure bound is reached and returns ErrClosed once
// shutdown has begun.
func (d *Dispatcher) Submit(ctx context.Context, r *core.Request) error {
	return d.SubmitAt(ctx, r, d.cfg.Clock.Now())
}

// SubmitAt enqueues r with an explicit model timestamp for the scheduler's
// value computation. Replay feeds use the request's nominal arrival time
// here so characterization values match a simulator run of the same trace
// exactly, leaving dispatch interleaving as the only divergence the
// calibrator measures.
//
// SubmitAt works before Start too — Preload stages a whole trace that way
// so every value anchors on the initial head and sweep state — but a
// pre-Start submission must not depend on the loop for progress: with a
// MaxQueue smaller than the staged trace it would block on quota no
// dispatch can ever free.
func (d *Dispatcher) SubmitAt(ctx context.Context, r *core.Request, now int64) error {
	if d.quota != nil {
		// A nil stop channel blocks forever, which is right before Start:
		// only the caller's ctx can interrupt the quota wait then.
		var stopc <-chan struct{}
		if d.started.Load() {
			stopc = d.ctx.Done()
		}
		select {
		case d.quota <- struct{}{}:
		default:
			d.m.BackpressureWaits.Inc()
			select {
			case d.quota <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			case <-stopc:
				return ErrStopped
			}
		}
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		if d.quota != nil {
			<-d.quota
		}
		d.m.Rejected.Inc()
		return ErrClosed
	}
	d.cfg.Sched.Add(r, now, d.Head())
	// Counted under mu: a Drain that closes after this Add must not see the
	// dispatcher quiescent while the request is still queued.
	d.outstanding.Add(1)
	d.mu.Unlock()
	d.m.Submitted.Inc()
	d.wake()
	return nil
}

// Drain shuts the ingress and serves out everything already accepted:
// subsequent submissions are rejected, queued requests are dispatched and
// completed, and Drain returns once the dispatcher is quiescent. If ctx
// expires first the remaining work is abandoned via Stop and ctx's error
// is returned.
func (d *Dispatcher) Drain(ctx context.Context) error {
	d.close()
	if !d.started.Load() {
		return ErrNotStarted
	}
	d.draining.Store(true)
	d.wake()
	select {
	case <-d.stopped:
	case <-ctx.Done():
		d.Stop()
		return ctx.Err()
	}
	d.workers.Wait()
	d.m.Drains.Inc()
	return nil
}

// Stop halts the dispatcher immediately: the ingress closes, in-flight
// backend services are canceled and recorded as abandoned, and requests
// still queued are counted abandoned as well, exactly once. Stop blocks
// until the loop and all workers have exited. Idempotent.
func (d *Dispatcher) Stop() {
	d.close()
	if !d.started.Load() {
		return
	}
	d.stop.Do(func() {
		d.cancel()
		<-d.stopped
		d.workers.Wait()
		// The loop has exited and the ingress is shut, so the queue is
		// final. Its requests stay in the scheduler; the Once keeps a
		// second Stop from counting them again.
		d.mu.Lock()
		n := d.cfg.Sched.Len()
		d.mu.Unlock()
		d.m.Abandoned.Add(uint64(n))
		d.outstanding.Add(int64(-n))
	})
}

// close shuts the ingress: every later SubmitAt returns ErrClosed.
func (d *Dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
}

// Records returns a copy of the accumulated dispatch records in dispatch
// order. Empty unless Config.KeepRecords was set.
func (d *Dispatcher) Records() []Record {
	d.recMu.Lock()
	out := make([]Record, len(d.recs))
	copy(out, d.recs)
	d.recMu.Unlock()
	// Workers append at completion, so the raw slice is in completion
	// order; hand back dispatch order, which is what callers align on.
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// wake nudges the dispatch loop; never blocks.
func (d *Dispatcher) wake() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

// loop is the single consumer of the scheduler: take a slot, pop the next
// request, hand it to a worker. Runs until shutdown.
func (d *Dispatcher) loop() {
	defer close(d.stopped)
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-d.slots:
		}
		r, ok := d.take()
		if !ok {
			return
		}
		now := d.cfg.Clock.Now()
		head := d.Head()
		target := clampCyl(r.Cylinder, d.cfg.Backend.Cylinders())
		// Single-disk HeadAtDispatch semantics: the head is en route to the
		// target for the whole service window, so submissions arriving
		// mid-service anchor their values on the position being seeked to —
		// exactly what the simulator's stations expose to the scheduler.
		d.head.Store(int64(target))
		d.travel.Add(int64(absInt(target - head)))
		d.m.HeadTravelCylinders.Add(uint64(absInt(target - head)))
		seq := d.dispSeq
		d.dispSeq++
		d.m.Dispatched.Inc()
		d.m.InFlight.Add(1)
		d.workers.Add(1)
		go d.serveOne(r, head, target, seq, now)
	}
}

// take pops the next dispatchable request, blocking until one is
// available, shutdown begins, or — while draining — the dispatcher goes
// quiescent. Expired requests are dropped here under DropLate without
// consuming the held slot. The second return is false on shutdown.
func (d *Dispatcher) take() (*core.Request, bool) {
	for {
		now := d.cfg.Clock.Now()
		d.mu.Lock()
		r := d.cfg.Sched.Next(now, d.Head())
		d.mu.Unlock()
		if r != nil {
			if d.cfg.DropLate && r.Deadline > 0 && now > r.Deadline {
				d.drop(r, now)
				continue
			}
			return r, true
		}
		// Workers decrement outstanding before kicking, so after consuming
		// a kick this check never misses a finished request.
		if d.draining.Load() && d.outstanding.Load() == 0 {
			return nil, false
		}
		select {
		case <-d.kick:
		case <-d.ctx.Done():
			return nil, false
		}
	}
}

// drop records the discard of an expired request. Drops consume a dispatch
// sequence number (the decision was made) but no backend service.
func (d *Dispatcher) drop(r *core.Request, now int64) {
	seq := d.dispSeq
	d.dispSeq++
	d.m.Dispatched.Inc()
	d.m.Dropped.Inc()
	d.record(Record{
		ID: r.ID, Seq: seq, Arrival: r.Arrival, Dispatch: now,
		Head: d.Head(), Target: d.Head(), Dropped: true,
	})
	d.finishOne()
}

// serveOne runs one backend service on its own goroutine and does the
// completion accounting.
func (d *Dispatcher) serveOne(r *core.Request, head, target, seq int, dispatchAt int64) {
	defer d.workers.Done()
	wallStart := time.Now()
	comp, err := d.cfg.Backend.Serve(d.ctx, r, head)
	d.m.WallService.Observe(uint64(time.Since(wallStart).Microseconds()))
	done := d.cfg.Clock.Now()
	rec := Record{
		ID: r.ID, Seq: seq, Arrival: r.Arrival, Dispatch: dispatchAt, Done: done,
		Head: head, Target: target, Seek: comp.Seek, Service: comp.Service,
	}
	if err != nil {
		rec.Abandoned = true
		rec.Done = 0
		d.m.Abandoned.Inc()
	} else {
		d.m.Completed.Inc()
		if lat := done - r.Arrival; lat >= 0 {
			d.m.ModelLatency.Observe(uint64(lat))
		}
	}
	d.record(rec)
	d.m.InFlight.Add(-1)
	d.finishOne()
	d.slots <- struct{}{}
	d.wake()
}

// finishOne retires one outstanding request: releases its backpressure
// quota and lets a drain observe quiescence.
func (d *Dispatcher) finishOne() {
	d.outstanding.Add(-1)
	if d.quota != nil {
		<-d.quota
	}
	d.wake()
}

// record appends/forwards one Record; calls to OnRecord are serialized.
func (d *Dispatcher) record(rec Record) {
	d.recMu.Lock()
	if d.cfg.KeepRecords {
		d.recs = append(d.recs, rec)
	}
	cb := d.cfg.OnRecord
	if cb != nil {
		cb(rec)
	}
	d.recMu.Unlock()
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
