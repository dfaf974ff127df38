package core

import "fmt"

// Scheduler couples an Encapsulator with a Dispatcher into the complete
// Cascaded-SFC disk scheduler. It satisfies the scheduler contract used by
// the simulator: values are computed at enqueue time (including the SFC3
// head-relative seek dimension, as in the paper).
type Scheduler struct {
	enc  *Encapsulator
	disp *Dispatcher
	name string

	// Scan-timeline tracking for the SFC3 stage: cumulative cylinders the
	// head has swept (cyclically) and the last head position observed.
	progress uint64
	lastHead int

	vbuf []uint64 // reusable AddBatch value buffer

	m *Metrics // never nil; shared with disp
}

// NewScheduler builds the full scheduler. If dcfg.Window is zero and
// windowFrac is positive, the blocking window is set to windowFrac of the
// encapsulator's value space — the unit the paper's experiments use.
func NewScheduler(name string, ecfg EncapsulatorConfig, dcfg DispatcherConfig, windowFrac float64) (*Scheduler, error) {
	enc, err := NewEncapsulator(ecfg)
	if err != nil {
		return nil, err
	}
	if windowFrac < 0 || windowFrac > 1 {
		return nil, fmt.Errorf("core: window fraction %v outside [0,1]", windowFrac)
	}
	if dcfg.Window == 0 && windowFrac > 0 {
		dcfg.Window = uint64(windowFrac * float64(enc.MaxValue()))
	}
	disp, err := NewDispatcher(dcfg)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = "cascaded-sfc"
	}
	return &Scheduler{enc: enc, disp: disp, name: name, m: disp.Metrics()}, nil
}

// MustScheduler is NewScheduler for static configurations.
func MustScheduler(name string, ecfg EncapsulatorConfig, dcfg DispatcherConfig, windowFrac float64) *Scheduler {
	s, err := NewScheduler(name, ecfg, dcfg, windowFrac)
	if err != nil {
		panic(err)
	}
	return s
}

// NewShardedScheduler returns the fully preemptive Scheduler over ecfg
// that NewScheduler(name, ecfg, DispatcherConfig{Mode: FullyPreemptive}, 0)
// builds; shards is ignored. Concurrent callers serialize through a lock of
// their own, as serve.Dispatcher does.
//
// Deprecated: use NewScheduler. This shim remains only because the
// benchmark module (perfbench) builds its serve-closed scheduler by this
// name; it goes when that module switches to NewScheduler.
func NewShardedScheduler(name string, ecfg EncapsulatorConfig, shards int) (*Scheduler, error) {
	return NewScheduler(name, ecfg, DispatcherConfig{Mode: FullyPreemptive}, 0)
}

// Name returns the scheduler's display name.
func (s *Scheduler) Name() string { return s.name }

// Encapsulator exposes the value mapper (e.g. for window sizing).
func (s *Scheduler) Encapsulator() *Encapsulator { return s.enc }

// Dispatcher exposes the queue machinery (e.g. for policy stats).
func (s *Scheduler) Dispatcher() *Dispatcher { return s.disp }

// SetMetrics redirects the scheduler's (and its dispatcher's) observability
// counters to m instead of the process-wide DefaultMetrics. Must be called
// before the first Add; m must not be nil.
func (s *Scheduler) SetMetrics(m *Metrics) {
	s.m = m
	s.disp.SetMetrics(m)
}

// Metrics returns the metrics sink the scheduler reports into.
func (s *Scheduler) Metrics() *Metrics { return s.m }

// observeHead advances the sweep timeline to the given head position.
// Any movement counts as forward cyclic progress, which is exact while the
// scheduler itself drives the head in sweep order.
func (s *Scheduler) observeHead(head int) {
	c := s.enc.cfg.Cylinders
	if c <= 0 {
		return
	}
	if head < 0 {
		head = 0
	}
	if head >= c {
		head = c - 1
	}
	s.progress += uint64((head - s.lastHead + c) % c)
	s.lastHead = head
	s.m.SweepProgress.Set(int64(s.progress))
}

// Add enqueues r, computing its characterization value at time now with
// the disk head at cylinder head.
func (s *Scheduler) Add(r *Request, now int64, head int) {
	s.observeHead(head)
	s.disp.Add(r, s.enc.ValueAt(r, now, head, s.progress))
}

// AddBatch enqueues every request of rs at time now with the disk head at
// cylinder head. Values are computed once into a reused buffer and handed
// to the dispatcher's bulk insert, which heapifies an empty queue in one
// O(n) pass instead of n sift-ups.
func (s *Scheduler) AddBatch(rs []*Request, now int64, head int) {
	if len(rs) == 0 {
		return
	}
	s.observeHead(head)
	if cap(s.vbuf) < len(rs) {
		s.vbuf = make([]uint64, len(rs))
	}
	vs := s.vbuf[:len(rs)]
	for i, r := range rs {
		vs[i] = s.enc.ValueAt(r, now, head, s.progress)
	}
	s.disp.AddBatch(rs, vs)
}

// Next dispatches the next request, or nil when idle.
func (s *Scheduler) Next(now int64, head int) *Request {
	s.observeHead(head)
	r := s.disp.Next()
	if r != nil {
		s.m.noteDispatch(r, now)
	}
	return r
}

// RequestValue returns the characterization value the encapsulator would
// assign r at time now with the head at cylinder head, on the current
// sweep timeline. Read-only: neither the queues nor the sweep progress
// change, so observability layers (sim decision tracing) can rank queued
// candidates by v_c without perturbing the scheduler.
func (s *Scheduler) RequestValue(r *Request, now int64, head int) uint64 {
	return s.enc.ValueAt(r, now, head, s.progress)
}

// Window returns the dispatcher's current blocking window (ER may have
// expanded it beyond the configured width).
func (s *Scheduler) Window() uint64 { return s.disp.Window() }

// Len returns the number of queued requests.
func (s *Scheduler) Len() int { return s.disp.Len() }

// Each visits all queued requests.
func (s *Scheduler) Each(visit func(*Request)) { s.disp.Each(visit) }
