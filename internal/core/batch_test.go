package core

import (
	"math/rand"
	"testing"
)

// drainIDs pops every request and returns the ID order.
func drainIDs(next func() *Request) []uint64 {
	var ids []uint64
	for r := next(); r != nil; r = next() {
		ids = append(ids, r.ID)
	}
	return ids
}

// TestAddBatchMatchesAddLoop checks that the bulk path dispatches in the
// exact order a one-by-one Add loop would, in every mode — including the
// conditionally preemptive one, where AddBatch must fall back to
// per-arrival window checks.
func TestAddBatchMatchesAddLoop(t *testing.T) {
	cfgs := []DispatcherConfig{
		{Mode: FullyPreemptive},
		{Mode: NonPreemptive},
		{Mode: ConditionallyPreemptive, Window: 100, SP: true},
	}
	rng := rand.New(rand.NewSource(21))
	for _, cfg := range cfgs {
		loop := MustDispatcher(cfg)
		bulk := MustDispatcher(cfg)
		n := 300
		rs := make([]*Request, n)
		vs := make([]uint64, n)
		for i := range rs {
			rs[i] = &Request{ID: uint64(i + 1)}
			vs[i] = uint64(rng.Intn(500))
		}
		for i := range rs {
			loop.Add(rs[i], vs[i])
		}
		bulk.AddBatch(rs, vs)
		a, b := drainIDs(loop.Next), drainIDs(bulk.Next)
		if len(a) != n || len(b) != n {
			t.Fatalf("%v: drained %d / %d of %d", cfg.Mode, len(a), len(b), n)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: order diverged at %d: loop %d, batch %d", cfg.Mode, i, a[i], b[i])
			}
		}
	}
}

// TestAddBatchOnNonEmptyQueue covers the incremental fallback when the
// target queue already holds requests.
func TestAddBatchOnNonEmptyQueue(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{Mode: FullyPreemptive})
	d.Add(&Request{ID: 100}, 50)
	d.AddBatch([]*Request{{ID: 1}, {ID: 2}}, []uint64{10, 90})
	want := []uint64{1, 100, 2}
	got := drainIDs(d.Next)
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestAddBatchLengthMismatchPanics(t *testing.T) {
	d := MustDispatcher(DispatcherConfig{Mode: FullyPreemptive})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	d.AddBatch([]*Request{{ID: 1}}, []uint64{1, 2})
}

// TestSchedulerAddBatchMatchesAddLoop checks the scheduler-level wrapper:
// identical values (one observeHead per batch vs per call with the same
// head) and identical dispatch order.
func TestSchedulerAddBatchMatchesAddLoop(t *testing.T) {
	ecfg := cascadeTestConfig()
	loop := MustScheduler("a", ecfg, DispatcherConfig{Mode: FullyPreemptive}, 0)
	bulk := MustScheduler("b", ecfg, DispatcherConfig{Mode: FullyPreemptive}, 0)
	rng := rand.New(rand.NewSource(22))
	rs := make([]*Request, 200)
	for i := range rs {
		rs[i] = randomRequest(rng, uint64(i+1))
	}
	for _, r := range rs {
		loop.Add(r, 5000, 77)
	}
	bulk.AddBatch(rs, 5000, 77)
	if bulk.Len() != loop.Len() {
		t.Fatalf("Len: bulk %d, loop %d", bulk.Len(), loop.Len())
	}
	for {
		a := loop.Next(6000, 77)
		b := bulk.Next(6000, 77)
		if a == nil || b == nil {
			if a != b {
				t.Fatalf("one scheduler drained early: %v vs %v", a, b)
			}
			break
		}
		if a.ID != b.ID {
			t.Fatalf("order diverged: loop %d, batch %d", a.ID, b.ID)
		}
	}
	// Empty batch is a no-op and must not disturb the sweep timeline.
	before := bulk.progress
	bulk.AddBatch(nil, 7000, 3000)
	if bulk.progress != before {
		t.Error("empty AddBatch advanced the sweep timeline")
	}
}
