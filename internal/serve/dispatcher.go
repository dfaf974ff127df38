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

// Dispatcher is the real-clock server: InFlight persistent workers each
// take the scheduler's next request and execute it against a Backend, so
// dispatch follows the scheduler's order with a bounded number in flight.
// The zero value is not usable; construct with New, then Start, Submit
// from any number of goroutines, and shut down with Drain (graceful) or
// Stop (immediate).
type Dispatcher struct {
	cfg Config
	m   *Metrics

	ctx     context.Context
	cancel  context.CancelFunc
	started atomic.Bool
	startMu sync.Mutex
	stopped chan struct{} // closed once every worker has exited
	stop    sync.Once
	workers sync.WaitGroup

	// quota is the MaxQueue backpressure semaphore (nil when unbounded):
	// Submit takes, completion/drop/rejection returns.
	quota chan struct{}

	// mu serializes the scheduler and the dispatch state: producers Add
	// and workers take under it. closed shuts the ingress (Drain, Stop);
	// producers check it under mu, so a submission racing shutdown is
	// either queued before the close — and then served, or counted
	// abandoned by Stop — or rejected. Idle workers wait on idle.
	mu       sync.Mutex
	idle     *sync.Cond
	closed   bool
	draining bool
	halted   bool // Stop or the Start context: workers exit at their next take
	dispSeq  int

	// outstanding counts submitted-but-not-yet-finished requests (queued +
	// in flight). It changes only under mu, so the drain handshake — a
	// worker exits once draining and outstanding is zero — cannot miss
	// the last completion; it is atomic for the lock-free Outstanding.
	outstanding atomic.Int64
	head        atomic.Int64
	travel      atomic.Int64

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
	d := &Dispatcher{cfg: cfg, m: m, stopped: make(chan struct{})}
	d.idle = sync.NewCond(&d.mu)
	if cfg.MaxQueue > 0 {
		d.quota = make(chan struct{}, cfg.MaxQueue)
	}
	return d, nil
}

// Start launches the InFlight workers. They run until Drain completes,
// Stop is called, or ctx is canceled. Start is idempotent; it must precede
// the first Submit.
func (d *Dispatcher) Start(ctx context.Context) {
	d.startMu.Lock()
	defer d.startMu.Unlock()
	if d.started.Load() {
		return
	}
	d.ctx, d.cancel = context.WithCancel(ctx)
	context.AfterFunc(d.ctx, func() { d.set(&d.halted) })
	d.started.Store(true)
	d.workers.Add(d.cfg.InFlight)
	for i := 0; i < d.cfg.InFlight; i++ {
		go d.work()
	}
	go func() {
		d.workers.Wait()
		close(d.stopped)
	}()
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
// pre-Start submission must not depend on the workers for progress: with a
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
		d.release()
		d.m.Rejected.Inc()
		return ErrClosed
	}
	d.cfg.Sched.Add(r, now, d.Head())
	// Counted under mu: a Drain that closes after this Add must not see the
	// dispatcher quiescent while the request is still queued.
	d.outstanding.Add(1)
	d.mu.Unlock()
	d.m.Submitted.Inc()
	d.idle.Signal()
	return nil
}

// Drain shuts the ingress and serves out everything already accepted:
// subsequent submissions are rejected, queued requests are dispatched and
// completed, and Drain returns once the dispatcher is quiescent. If ctx
// expires first the remaining work is abandoned via Stop and ctx's error
// is returned.
func (d *Dispatcher) Drain(ctx context.Context) error {
	d.set(&d.closed)
	if !d.started.Load() {
		return ErrNotStarted
	}
	d.set(&d.draining)
	select {
	case <-d.stopped:
	case <-ctx.Done():
		d.Stop()
		return ctx.Err()
	}
	d.m.Drains.Inc()
	return nil
}

// Stop halts the dispatcher immediately: the ingress closes, in-flight
// backend services are canceled and recorded as abandoned, and requests
// still queued are counted abandoned as well, exactly once. Stop blocks
// until all workers have exited. Idempotent.
func (d *Dispatcher) Stop() {
	d.set(&d.closed)
	if !d.started.Load() {
		return
	}
	d.stop.Do(func() {
		// Halt before canceling: a worker whose service the cancel cuts
		// short must find the halt at its next take, not dispatch again.
		d.set(&d.halted)
		d.cancel()
		<-d.stopped
		// The workers have exited and the ingress is shut, so the queue is
		// final. Its requests stay in the scheduler; the Once keeps a
		// second Stop from counting them again.
		d.mu.Lock()
		n := d.cfg.Sched.Len()
		d.outstanding.Add(int64(-n))
		d.mu.Unlock()
		d.m.Abandoned.Add(uint64(n))
	})
}

// set raises one of the shutdown flags under mu and wakes the idle
// workers to act on it.
func (d *Dispatcher) set(flag *bool) {
	d.mu.Lock()
	*flag = true
	d.mu.Unlock()
	d.idle.Broadcast()
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

// work is one persistent worker: take the next request, serve it inline,
// record the outcome, repeat until shutdown. It reads the wall clock once
// per transition: after a wait, and at each completion, whose reading
// also stamps the next take.
func (d *Dispatcher) work() {
	defer d.workers.Done()
	var drops []Record
	t := time.Now()
	for retire := false; ; retire = true {
		r, rec, ok := d.take(&t, retire, &drops)
		if !ok {
			return
		}
		comp, err := d.cfg.Backend.Serve(d.ctx, r, rec.Head)
		done := time.Now()
		d.m.WallService.Observe(uint64(done.Sub(t).Microseconds()))
		t = done
		rec.Seek, rec.Service = comp.Seek, comp.Service
		if err != nil {
			rec.Abandoned = true
			d.m.Abandoned.Inc()
		} else {
			rec.Done = d.cfg.Clock.at(done)
			d.m.Completed.Inc()
			if lat := rec.Done - r.Arrival; lat >= 0 {
				d.m.ModelLatency.Observe(uint64(lat))
			}
		}
		d.m.InFlight.Add(-1)
		d.release()
		d.record(rec)
	}
}

// take pops the next request to serve and its record so far, waiting
// while the queue is empty. *t is the wall reading the dispatch is stamped
// with, refreshed after a wait; retire retires the request the worker just
// finished, in the same critical section. Expired requests are dropped
// here under DropLate. Their records collect in drops and are emitted only
// once mu is released, because OnRecord may call back into Submit. ok is
// false on shutdown: a halt, or a drain that found the dispatcher
// quiescent.
func (d *Dispatcher) take(t *time.Time, retire bool, drops *[]Record) (r *core.Request, rec Record, ok bool) {
	d.mu.Lock()
	if retire {
		d.outstanding.Add(-1)
	}
	for !d.halted {
		now := d.cfg.Clock.at(*t)
		head := d.Head()
		if r = d.cfg.Sched.Next(now, head); r == nil {
			if d.draining && d.outstanding.Load() == 0 {
				break
			}
			if len(*drops) > 0 {
				// Emit before sleeping: their producers may be waiting on
				// those records to submit more work.
				d.mu.Unlock()
				d.flush(drops)
				d.mu.Lock()
			} else {
				d.idle.Wait()
			}
			*t = time.Now()
			continue
		}
		// Drops consume a dispatch sequence number too: the decision was
		// made, only the backend service is skipped.
		rec = Record{ID: r.ID, Seq: d.dispSeq, Arrival: r.Arrival, Dispatch: now, Head: head, Target: head}
		d.dispSeq++
		d.m.Dispatched.Inc()
		if d.cfg.DropLate && r.Deadline > 0 && now > r.Deadline {
			rec.Dropped = true
			*drops = append(*drops, rec)
			d.m.Dropped.Inc()
			d.outstanding.Add(-1)
			continue
		}
		rec.Target = clampCyl(r.Cylinder, d.cfg.Backend.Cylinders())
		// Single-disk HeadAtDispatch semantics: the head is en route to the
		// target for the whole service window, so submissions arriving
		// mid-service anchor their values on the position being seeked to —
		// exactly what the simulator's stations expose to the scheduler.
		d.head.Store(int64(rec.Target))
		d.travel.Add(int64(absInt(rec.Target - head)))
		d.m.HeadTravelCylinders.Add(uint64(absInt(rec.Target - head)))
		d.m.InFlight.Add(1)
		d.mu.Unlock()
		d.flush(drops)
		return r, rec, true
	}
	d.mu.Unlock()
	// Quiescent or halted: every other idle worker must see it too.
	d.idle.Broadcast()
	d.flush(drops)
	return nil, Record{}, false
}

// flush returns the collected drops' quota and emits their records.
func (d *Dispatcher) flush(drops *[]Record) {
	for _, rec := range *drops {
		d.release()
		d.record(rec)
	}
	*drops = (*drops)[:0]
}

// release returns one retired request's backpressure quota.
func (d *Dispatcher) release() {
	if d.quota != nil {
		<-d.quota
	}
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
