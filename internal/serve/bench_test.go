package serve

import (
	"context"
	"fmt"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
)

// BenchmarkDispatcherPerRequest is the live-dispatcher rung of the bench
// ladder: one request's Submit → take → backend → record cycle through a
// started Dispatcher, with a closed-loop producer keeping 16 requests
// outstanding. The backend charges the Table 1 service model without
// sleeping, so ns/op and allocs/op are the serving path's own cost.
func BenchmarkDispatcherPerRequest(b *testing.B) {
	for _, inflight := range []int{1, 4} {
		b.Run(fmt.Sprintf("inflight=%d", inflight), func(b *testing.B) {
			l := newClosedLoop(b, inflight, 16)
			b.ReportAllocs()
			b.ResetTimer()
			l.run(b, b.N)
			b.StopTimer()
			l.drain(b)
		})
	}
}

// TestDispatcherSteadyStateNoAllocs gates the serving path's steady state:
// once warm, a Submit → completion record cycle at InFlight 1 allocates
// nothing.
func TestDispatcherSteadyStateNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	l := newClosedLoop(t, 1, 1)
	l.run(t, 1000)
	allocs := testing.AllocsPerRun(1000, func() { l.run(t, 1) })
	l.drain(t)
	if allocs != 0 {
		t.Fatalf("steady-state Submit→completion allocates %.2f times per request, want 0", allocs)
	}
}

// chargedDisk is a Backend that charges the disk service model without
// sleeping.
type chargedDisk struct{ svc disk.ServiceModel }

func (b chargedDisk) Cylinders() int { return b.svc.Cylinders() }

func (b chargedDisk) Serve(_ context.Context, r *core.Request, head int) (Completion, error) {
	seek, svc := b.svc.Times(head, clampCyl(r.Cylinder, b.svc.Cylinders()), r.Size, nil)
	return Completion{Seek: seek, Service: svc}, nil
}

// closedLoop is one producer keeping a window of requests outstanding on
// a started dispatcher over a chargedDisk: each completion record hands
// its window slot back, and the producer resubmits into it.
type closedLoop struct {
	d     *Dispatcher
	m     *Metrics
	clock *Clock
	reqs  []core.Request // one per window slot, reused
	done  chan int       // completed window slots
	sent  uint64         // requests submitted so far
}

func newClosedLoop(tb testing.TB, inflight, window int) *closedLoop {
	tb.Helper()
	clock, err := NewClock(1)
	if err != nil {
		tb.Fatal(err)
	}
	l := &closedLoop{m: &Metrics{}, clock: clock, reqs: make([]core.Request, window), done: make(chan int, window)}
	for k := range l.reqs {
		l.reqs[k].Priorities = []int{k % 8}
	}
	l.d, err = New(Config{
		Sched:    newCascaded(core.DispatcherConfig{Mode: core.FullyPreemptive}, 0),
		Backend:  chargedDisk{disk.ServiceModel{Disk: disk.MustModel(disk.QuantumXP32150Params())}},
		Clock:    clock,
		InFlight: inflight,
		MaxQueue: window,
		Metrics:  l.m,
		OnRecord: func(rec Record) { l.done <- int(rec.ID % uint64(window)) },
	})
	if err != nil {
		tb.Fatal(err)
	}
	l.d.Start(context.Background())
	return l
}

// run submits n requests through the window and waits for all of them.
func (l *closedLoop) run(tb testing.TB, n int) {
	out := 0
	for k := 0; k < len(l.reqs) && out < n; k++ {
		l.submit(tb, k)
		out++
	}
	for sent := out; out > 0; {
		k := <-l.done
		out--
		if sent < n {
			l.submit(tb, k)
			sent++
			out++
		}
	}
}

// submit refills window slot k with a fresh request and submits it.
func (l *closedLoop) submit(tb testing.TB, k int) {
	l.sent++
	r := &l.reqs[k]
	now := l.clock.Now()
	*r = core.Request{
		ID:         l.sent*uint64(len(l.reqs)) + uint64(k),
		Priorities: r.Priorities,
		Cylinder:   int(l.sent*2654435761) % 3832,
		Size:       64 << 10,
		Arrival:    now,
		Deadline:   now + 600_000,
	}
	if err := l.d.SubmitAt(context.Background(), r, now); err != nil {
		tb.Fatalf("SubmitAt: %v", err)
	}
}

// drain shuts the dispatcher down and checks every request completed.
func (l *closedLoop) drain(tb testing.TB) {
	tb.Helper()
	if err := l.d.Drain(context.Background()); err != nil {
		tb.Fatalf("Drain: %v", err)
	}
	if got := l.m.Completed.Load(); got != l.sent || l.m.Submitted.Load() != l.sent {
		tb.Fatalf("submitted %d, completed %d of %d sent", l.m.Submitted.Load(), got, l.sent)
	}
}
