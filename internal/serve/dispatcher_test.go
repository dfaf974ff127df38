package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
)

// serveConfig is the cascaded configuration the serving tests schedule
// with: deadline and cylinder stages over the Table 1 geometry.
func serveConfig() core.EncapsulatorConfig {
	return core.EncapsulatorConfig{
		Levels:      8,
		UseDeadline: true, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}
}

// newCascaded builds the cascaded scheduler over serveConfig with a
// private metrics sink.
func newCascaded(dcfg core.DispatcherConfig, windowFrac float64) *core.Scheduler {
	s := core.MustScheduler("cascaded", serveConfig(), dcfg, windowFrac)
	s.SetMetrics(&core.Metrics{})
	return s
}

// newPolicy builds one of the 14 registry policies the live dispatcher
// must serve: cascaded conditionally preemptive with SP at a 2% window
// over serveConfig, the 13 baselines at their registry defaults.
func newPolicy(model *disk.Model, name string) sched.Scheduler {
	if name == "cascaded" {
		return newCascaded(core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.02)
	}
	return sched.MustNew(name, sched.Params{Disk: model, Levels: 8})
}

// reqAt builds one test request with a far-off deadline.
func reqAt(id uint64, cyl int, size int64) *core.Request {
	return &core.Request{
		ID:         id,
		Priorities: []int{int(id) % 8},
		Deadline:   600_000 + int64(id),
		Cylinder:   cyl,
		Size:       size,
	}
}

// zeroArrivalTrace builds n requests all arriving at model time 0, spread
// over the cylinder space — the preloadable trace shape of the exact-order
// guarantee.
func zeroArrivalTrace(n int) []*core.Request {
	trace := make([]*core.Request, n)
	for i := range trace {
		trace[i] = reqAt(uint64(i+1), ((i+1)*311)%3832, 65536)
	}
	return trace
}

// fakeBackend serves instantly (a fixed 10 µs model cost), optionally
// blocking on gate until it is closed or ctx is canceled.
type fakeBackend struct {
	gate   chan struct{}
	served atomic.Int64
}

func (f *fakeBackend) Cylinders() int { return 0 }

func (f *fakeBackend) Serve(ctx context.Context, r *core.Request, head int) (Completion, error) {
	if f.gate != nil {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return Completion{}, ctx.Err()
		}
	}
	f.served.Add(1)
	return Completion{Seek: 0, Service: 10}, nil
}

func newTestDispatcher(t *testing.T, cfg Config) (*Dispatcher, *Metrics) {
	t.Helper()
	m := &Metrics{}
	cfg.Metrics = m
	if cfg.Sched == nil {
		cfg.Sched = newCascaded(core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	}
	if cfg.Clock == nil {
		c, err := NewClock(10_000)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clock = c
	}
	if cfg.Backend == nil {
		cfg.Backend = &fakeBackend{}
	}
	cfg.KeepRecords = true
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d, m
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestNewValidation(t *testing.T) {
	s := newCascaded(core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	clock, _ := NewClock(100)
	be := &fakeBackend{}
	bad := []Config{
		{Backend: be, Clock: clock},
		{Sched: s, Clock: clock},
		{Sched: s, Backend: be},
		{Sched: s, Backend: be, Clock: clock, InFlight: -1},
		{Sched: s, Backend: be, Clock: clock, MaxQueue: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// TestDispatcherServesAllConcurrentSubmitters is the serving layer's bread
// and butter: many producers, bounded in-flight dispatch, graceful drain,
// nothing lost and nothing served twice.
func TestDispatcherServesAllConcurrentSubmitters(t *testing.T) {
	d, m := newTestDispatcher(t, Config{InFlight: 4})
	d.Start(context.Background())

	const producers = 4
	const perProducer = 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint64(p*perProducer + i + 1)
				if err := d.Submit(context.Background(), reqAt(id, int(id*37)%3832, 4096)); err != nil {
					t.Errorf("Submit %d: %v", id, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	const total = producers * perProducer
	if got := m.Submitted.Load(); got != total {
		t.Errorf("Submitted = %d, want %d", got, total)
	}
	if got := m.Completed.Load(); got != total {
		t.Errorf("Completed = %d, want %d", got, total)
	}
	if got := m.Dispatched.Load(); got != total {
		t.Errorf("Dispatched = %d, want %d", got, total)
	}
	if got := m.InFlight.Load(); got != 0 {
		t.Errorf("InFlight = %d after drain, want 0", got)
	}
	if d.Outstanding() != 0 {
		t.Errorf("Outstanding = %d after drain, want 0", d.Outstanding())
	}
	recs := d.Records()
	if len(recs) != total {
		t.Fatalf("got %d records, want %d", len(recs), total)
	}
	seen := make(map[uint64]bool, total)
	for i, rec := range recs {
		if rec.Seq != i {
			t.Fatalf("record %d has seq %d: dispatch sequence not dense", i, rec.Seq)
		}
		if seen[rec.ID] {
			t.Fatalf("request %d recorded twice", rec.ID)
		}
		seen[rec.ID] = true
		if rec.Dropped || rec.Abandoned {
			t.Fatalf("request %d marked dropped/abandoned on a clean run", rec.ID)
		}
		if rec.Done < rec.Dispatch {
			t.Fatalf("request %d completed at %d before its dispatch at %d", rec.ID, rec.Done, rec.Dispatch)
		}
	}

	// The ingress stays closed after a drain.
	if err := d.Submit(context.Background(), reqAt(9999, 0, 4096)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain = %v, want ErrClosed", err)
	}
	if got := m.Rejected.Load(); got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
}

// TestDispatcherExactSimOrder is the acceptance-criteria pin: on a
// preloaded arrival-at-zero trace the live dispatcher's dispatch order is
// bit-identical to sim.Run's for every policy, because every enqueue
// happens on the initial head state and each Next sees the same queued set
// and head the simulator's does. Only now differs, and the trace's
// deadlines lie within 96 µs of each other, so no policy's choice on it
// turns on the clock: wall-clock jitter has nothing left to perturb. The
// guarantee is independent of the in-flight bound.
func TestDispatcherExactSimOrder(t *testing.T) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	for _, name := range sched.Names() {
		for _, inflight := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/inflight%d", name, inflight), func(t *testing.T) {
				trace := zeroArrivalTrace(96)
				var simOrder []uint64
				if _, err := sim.Run(sim.Config{
					Disk: model, Scheduler: newPolicy(model, name),
					Options: sim.Options{Trace: func(ev sim.TraceEvent) {
						if !ev.Dropped {
							simOrder = append(simOrder, ev.Request.ID)
						}
					}},
				}, trace); err != nil {
					t.Fatalf("sim.Run: %v", err)
				}

				clock, _ := NewClock(50_000)
				be, err := NewEmulatedDisk(disk.ServiceModel{Disk: model}, clock)
				if err != nil {
					t.Fatal(err)
				}
				d, _ := newTestDispatcher(t, Config{Sched: newPolicy(model, name), Backend: be, Clock: clock, InFlight: inflight})
				if err := Preload(context.Background(), d, trace); err != nil {
					t.Fatalf("Preload: %v", err)
				}
				d.Start(context.Background())
				if err := d.Drain(context.Background()); err != nil {
					t.Fatalf("Drain: %v", err)
				}

				recs := d.Records()
				if len(recs) != len(simOrder) {
					t.Fatalf("live served %d, sim served %d", len(recs), len(simOrder))
				}
				for i, rec := range recs {
					if rec.ID != simOrder[i] {
						t.Fatalf("dispatch order diverges at %d: live %d, sim %d", i, rec.ID, simOrder[i])
					}
				}
			})
		}
	}
}

func TestDispatcherBackpressure(t *testing.T) {
	gate := make(chan struct{})
	be := &fakeBackend{gate: gate}
	d, m := newTestDispatcher(t, Config{Backend: be, InFlight: 1, MaxQueue: 2})
	d.Start(context.Background())

	if err := d.Submit(context.Background(), reqAt(1, 100, 4096)); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	waitFor(t, "first dispatch", func() bool { return m.Dispatched.Load() == 1 })
	if err := d.Submit(context.Background(), reqAt(2, 200, 4096)); err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	// Quota is now exhausted (one serving, one queued): the third submit
	// must block until a completion frees it.
	third := make(chan error, 1)
	go func() { third <- d.Submit(context.Background(), reqAt(3, 300, 4096)) }()
	waitFor(t, "backpressure wait", func() bool { return m.BackpressureWaits.Load() == 1 })
	select {
	case err := <-third:
		t.Fatalf("third Submit returned early: %v", err)
	default:
	}
	close(gate)
	if err := <-third; err != nil {
		t.Fatalf("third Submit after release: %v", err)
	}
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := m.Completed.Load(); got != 3 {
		t.Fatalf("Completed = %d, want 3", got)
	}
}

// TestDispatcherBackpressureSubmitCancel pins that a submitter blocked on
// the quota can bail out via its own context.
func TestDispatcherBackpressureSubmitCancel(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	be := &fakeBackend{gate: gate}
	d, m := newTestDispatcher(t, Config{Backend: be, InFlight: 1, MaxQueue: 1})
	d.Start(context.Background())
	if err := d.Submit(context.Background(), reqAt(1, 100, 4096)); err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() { blocked <- d.Submit(ctx, reqAt(2, 200, 4096)) }()
	waitFor(t, "backpressure wait", func() bool { return m.BackpressureWaits.Load() == 1 })
	cancel()
	if err := <-blocked; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Submit = %v, want context.Canceled", err)
	}
	d.Stop()
}

func TestDispatcherStopAbandons(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	be := &fakeBackend{gate: gate}
	d, m := newTestDispatcher(t, Config{Backend: be, InFlight: 1})
	d.Start(context.Background())
	for i := 1; i <= 3; i++ {
		if err := d.Submit(context.Background(), reqAt(uint64(i), i*100, 4096)); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	// One request reaches the backend and parks on the gate; two stay
	// queued. Stop must cancel the former and account all three.
	waitFor(t, "dispatch", func() bool { return m.Dispatched.Load() == 1 })
	d.Stop()
	if got := m.Abandoned.Load(); got != 3 {
		t.Fatalf("Abandoned = %d, want 3", got)
	}
	if got := m.Completed.Load(); got != 0 {
		t.Fatalf("Completed = %d, want 0", got)
	}
	var abandoned int
	for _, rec := range d.Records() {
		if rec.Abandoned {
			abandoned++
		}
	}
	if abandoned != 1 {
		t.Fatalf("%d abandoned records, want 1 (the in-flight service)", abandoned)
	}
	// Stop is idempotent: a second Stop counts nothing again, and the
	// ingress stays shut.
	d.Stop()
	if got := m.Abandoned.Load(); got != 3 {
		t.Fatalf("Abandoned = %d after a second Stop, want 3", got)
	}
	if err := d.Submit(context.Background(), reqAt(99, 0, 4096)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Stop = %v, want ErrClosed", err)
	}
}

// TestDispatcherShutdownNoLossNoDoubleDispatch is the dispatcher's
// shutdown contract: producers hammer Submit while the workers serve, and
// a Drain — or a Stop — lands mid-run, at in-flight bounds 1, 2 and 4,
// with and without DropLate. Every submitted request must end in exactly
// one of three ways: ErrClosed, one terminal record, or (Stop only) still
// queued and counted abandoned. Never two, never none; and the counters
// agree: Submitted = Completed + Dropped + Abandoned.
func TestDispatcherShutdownNoLossNoDoubleDispatch(t *testing.T) {
	for _, stop := range []bool{false, true} {
		name := "drain"
		if stop {
			name = "stop"
		}
		t.Run(name, func(t *testing.T) {
			for _, inflight := range []int{1, 2, 4} {
				for _, dropLate := range []bool{false, true} {
					t.Run(fmt.Sprintf("inflight%d/droplate=%v", inflight, dropLate), func(t *testing.T) {
						testShutdownNoLossNoDoubleDispatch(t, stop, inflight, dropLate)
					})
				}
			}
		})
	}
}

func testShutdownNoLossNoDoubleDispatch(t *testing.T, stop bool, inflight int, dropLate bool) {
	s := newCascaded(core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	d, m := newTestDispatcher(t, Config{Sched: s, InFlight: inflight, DropLate: dropLate})
	d.Start(context.Background())

	const producers = 4
	const perProducer = 2000
	const total = producers * perProducer
	var accepted, rejected sync.Map // id -> true
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				id := uint64(p*perProducer + i + 1)
				r := &core.Request{
					ID:         id,
					Priorities: []int{int(id) % 8},
					Deadline:   int64(id%700_000) + 1,
					Cylinder:   int(id*37) % 3832,
				}
				if id%2 == 1 {
					// Out of reach of the model clock for the whole run,
					// so DropLate both drops and serves.
					r.Deadline += 1 << 40
				}
				switch err := d.Submit(context.Background(), r); {
				case err == nil:
					accepted.Store(id, true)
				case errors.Is(err, ErrClosed):
					rejected.Store(id, true)
				default:
					t.Errorf("Submit %d: %v", id, err)
					return
				}
			}
		}(p)
	}

	// Let the mill turn, then shut the ingress mid-run.
	waitFor(t, "submissions", func() bool { return m.Submitted.Load() >= total/4 })
	if stop {
		d.Stop()
	} else if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()

	outcomes := make(map[uint64]int, total)
	recAbandoned, recDropped := 0, 0
	for _, rec := range d.Records() {
		outcomes[rec.ID]++
		if rec.Abandoned {
			recAbandoned++
		}
		if rec.Dropped {
			recDropped++
		}
		if (rec.Dropped && !dropLate) || (!stop && rec.Abandoned) {
			t.Fatalf("request %d: unexpected terminal record %+v", rec.ID, rec)
		}
	}
	// Stop leaves the queued remainder in the scheduler.
	queued := 0
	s.Each(func(r *core.Request) {
		outcomes[r.ID]++
		queued++
	})
	if !stop && queued != 0 {
		t.Fatalf("%d requests still queued after Drain", queued)
	}
	if got := int(m.Abandoned.Load()); got != recAbandoned+queued {
		t.Fatalf("Abandoned = %d, want %d records + %d queued", got, recAbandoned, queued)
	}
	if got := int(m.Dropped.Load()); got != recDropped {
		t.Fatalf("Dropped = %d, want %d dropped records", got, recDropped)
	}
	if sub, fin := m.Submitted.Load(), m.Completed.Load()+m.Dropped.Load()+m.Abandoned.Load(); sub != fin {
		t.Fatalf("Submitted = %d, but Completed + Dropped + Abandoned = %d", sub, fin)
	}
	if d.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after shutdown, want 0", d.Outstanding())
	}

	var nAccepted, nRejected int
	accepted.Range(func(k, _ any) bool {
		nAccepted++
		if n := outcomes[k.(uint64)]; n != 1 {
			t.Fatalf("accepted request %d has %d outcomes, want exactly 1", k, n)
		}
		return true
	})
	rejected.Range(func(k, _ any) bool {
		nRejected++
		if n := outcomes[k.(uint64)]; n != 0 {
			t.Fatalf("rejected request %d has %d outcomes, want 0", k, n)
		}
		return true
	})
	if nAccepted+nRejected != total {
		t.Fatalf("accepted %d + rejected %d != submitted %d", nAccepted, nRejected, total)
	}
	if len(outcomes) != nAccepted {
		t.Fatalf("%d distinct requests have outcomes, %d were accepted", len(outcomes), nAccepted)
	}
	if got := int(m.Rejected.Load()); got != nRejected {
		t.Fatalf("Rejected = %d, want %d", got, nRejected)
	}
	if nRejected == 0 {
		t.Log("note: shutdown landed after every producer finished; rejection path untested this run")
	}
}

// TestDispatcherOnRecordResubmits runs the closed loop inside OnRecord:
// every record, a drop's included, submits the next request from the
// callback. A record emitted while the dispatcher holds its scheduler lock
// would deadlock that Submit, and one held back while a worker sleeps
// would starve the loop, so the test bounds its wait instead of hanging.
// Every expired-th ID carries an already-expired deadline and must drop;
// the others one out of the run's reach.
func TestDispatcherOnRecordResubmits(t *testing.T) {
	for _, inflight := range []int{1, 4} {
		for _, expired := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("inflight%d/expired%d", inflight, expired), func(t *testing.T) {
				testOnRecordResubmits(t, inflight, expired)
			})
		}
	}
}

func testOnRecordResubmits(t *testing.T, inflight int, expired uint64) {
	const total, seeds = 4000, 8
	m := &Metrics{}
	clock, _ := NewClock(10_000)
	outcomes := make(map[uint64]int, total) // OnRecord calls are serialized
	all := make(chan struct{})
	var next atomic.Uint64
	next.Store(seeds)
	var d *Dispatcher
	req := func(id uint64) *core.Request {
		r := reqAt(id, int(id*37)%3832, 4096)
		r.Deadline = 1 << 40
		if id%expired == 0 {
			r.Deadline = 1
		}
		return r
	}
	d, err := New(Config{
		Sched: newCascaded(core.DispatcherConfig{Mode: core.FullyPreemptive}, 0), Backend: &fakeBackend{},
		Clock: clock, InFlight: inflight, MaxQueue: seeds, DropLate: true, Metrics: m,
		OnRecord: func(rec Record) {
			outcomes[rec.ID]++
			if len(outcomes) == total && outcomes[rec.ID] == 1 {
				close(all)
			}
			if id := next.Add(1); id <= total {
				if err := d.Submit(context.Background(), req(id)); err != nil {
					t.Errorf("Submit %d from OnRecord: %v", id, err)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The model clock is past the expired deadlines before any take.
	time.Sleep(time.Millisecond)
	d.Start(context.Background())
	for id := uint64(1); id <= seeds; id++ {
		if err := d.Submit(context.Background(), req(id)); err != nil {
			t.Fatalf("Submit %d: %v", id, err)
		}
	}
	select {
	case <-all:
	case <-time.After(20 * time.Second):
		t.Fatalf("deadlock: %d of %d requests decided", m.Completed.Load()+m.Dropped.Load(), total)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for id := uint64(1); id <= total; id++ {
		if outcomes[id] != 1 {
			t.Fatalf("request %d has %d records, want exactly 1", id, outcomes[id])
		}
	}
	drops := total / expired
	if m.Submitted.Load() != total || m.Dropped.Load() != drops || m.Completed.Load() != total-drops {
		t.Fatalf("submitted %d, completed %d, dropped %d; want %d, %d, %d",
			m.Submitted.Load(), m.Completed.Load(), m.Dropped.Load(), total, total-drops, drops)
	}
}

// TestDispatcherClosedBeforeStart pins the quiescent-state semantics: Stop
// or Drain before Start shuts the ingress, a later Submit is rejected, and
// a request staged before the close stays queued.
func TestDispatcherClosedBeforeStart(t *testing.T) {
	for _, stop := range []bool{false, true} {
		s := newCascaded(core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
		d, m := newTestDispatcher(t, Config{Sched: s})
		if err := Preload(context.Background(), d, []*core.Request{reqAt(1, 100, 4096)}); err != nil {
			t.Fatalf("Preload: %v", err)
		}
		if stop {
			d.Stop()
		} else if err := d.Drain(context.Background()); !errors.Is(err, ErrNotStarted) {
			t.Fatalf("Drain before Start = %v, want ErrNotStarted", err)
		}
		if err := d.Submit(context.Background(), reqAt(2, 200, 4096)); !errors.Is(err, ErrClosed) {
			t.Fatalf("stop=%v: Submit after close = %v, want ErrClosed", stop, err)
		}
		if s.Len() != 1 || m.Rejected.Load() != 1 || m.Abandoned.Load() != 0 {
			t.Fatalf("stop=%v: queued %d, rejected %d, abandoned %d; want 1, 1, 0",
				stop, s.Len(), m.Rejected.Load(), m.Abandoned.Load())
		}
	}
}

func TestDispatcherDropLate(t *testing.T) {
	trace := []*core.Request{}
	for i := 1; i <= 8; i++ {
		r := reqAt(uint64(i), i*400, 4096)
		if i%2 == 0 {
			// The model clock is well past 1 µs by the time the workers run.
			r.Deadline = 1
		}
		trace = append(trace, r)
	}
	// Dilation 100: the 1 ms warm-up below puts the model clock at ~100 ms —
	// past the 1 µs deadlines, far from the ~600 ms ones.
	clock, _ := NewClock(100)
	d, m := newTestDispatcher(t, Config{DropLate: true, Clock: clock})
	if err := Preload(context.Background(), d, trace); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	time.Sleep(time.Millisecond)
	d.Start(context.Background())
	if err := d.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := m.Dropped.Load(); got != 4 {
		t.Fatalf("Dropped = %d, want 4", got)
	}
	if got := m.Completed.Load(); got != 4 {
		t.Fatalf("Completed = %d, want 4", got)
	}
	for _, rec := range d.Records() {
		if want := rec.ID%2 == 0; rec.Dropped != want {
			t.Fatalf("request %d: dropped = %v, want %v", rec.ID, rec.Dropped, want)
		}
	}
}

func TestDispatcherHeadTracking(t *testing.T) {
	model := disk.MustModel(disk.QuantumXP32150Params())
	clock, _ := NewClock(50_000)
	be, _ := NewEmulatedDisk(disk.ServiceModel{Disk: model}, clock)
	d, m := newTestDispatcher(t, Config{Backend: be, Clock: clock, InFlight: 1})
	trace := []*core.Request{reqAt(1, 1000, 4096), reqAt(2, 3000, 4096), reqAt(3, 2000, 4096)}
	if err := Preload(context.Background(), d, trace); err != nil {
		t.Fatal(err)
	}
	d.Start(context.Background())
	if err := d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Whatever order the scheduler chose, total travel is the sum of the
	// per-record head-to-target distances starting from cylinder 0.
	var travel int64
	head := 0
	for _, rec := range d.Records() {
		if rec.Head != head {
			t.Fatalf("record %d departs from head %d, dispatcher head was %d", rec.ID, rec.Head, head)
		}
		travel += int64(absInt(rec.Target - rec.Head))
		head = rec.Target
	}
	if d.HeadTravel() != travel {
		t.Fatalf("HeadTravel = %d, records sum to %d", d.HeadTravel(), travel)
	}
	if got := int64(m.HeadTravelCylinders.Load()); got != travel {
		t.Fatalf("HeadTravelCylinders = %d, want %d", got, travel)
	}
	if d.Head() != head {
		t.Fatalf("Head = %d, want %d", d.Head(), head)
	}
}
