package fault

import (
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/obs"
)

func newQuiet(t *testing.T, plan Plan, cylinders int) *Injector {
	t.Helper()
	if plan.Metrics == nil {
		plan.Metrics = &Metrics{}
	}
	in, err := New(plan, cylinders)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPlanZero(t *testing.T) {
	var nilPlan *Plan
	cases := []struct {
		name string
		plan *Plan
		want bool
	}{
		{"nil plan", nilPlan, true},
		{"empty plan", &Plan{}, true},
		{"seed and retry policy only", &Plan{Seed: 7, MaxRetries: 5, RetryBase: 100}, true},
		{"transient rate", &Plan{TransientRate: 0.1}, false},
		{"scripted event", &Plan{Scripted: []Event{{Time: 1, Disk: 0, Cylinder: -1}}}, false},
		{"bad range", &Plan{Bad: []BadRange{{Disk: 0, From: 1, To: 2}}}, false},
		{"disk failure", &Plan{FailDisk: 1, FailAt: 5}, false},
	}
	for _, tc := range cases {
		if got := tc.plan.Zero(); got != tc.want {
			t.Errorf("%s: Zero() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name    string
		plan    Plan
		wantErr string // empty = valid
	}{
		{"zero plan", Plan{}, ""},
		{"full valid plan", Plan{
			TransientRate: 0.5,
			Scripted:      []Event{{Time: 10, Disk: 1, Cylinder: -1}},
			Bad:           []BadRange{{Disk: 0, From: 5, To: 5}},
			FailDisk:      2, FailAt: 100,
			Rebuild: true, RebuildBlocks: 4, RebuildInterval: 50,
		}, ""},
		{"rate above one", Plan{TransientRate: 1.5}, "TransientRate"},
		{"rate negative", Plan{TransientRate: -0.1}, "TransientRate"},
		{"negative retry base", Plan{RetryBase: -1}, "RetryBase"},
		{"scripted negative disk", Plan{Scripted: []Event{{Disk: -1}}}, "Scripted[0]"},
		{"scripted negative time", Plan{Scripted: []Event{{Time: -5}}}, "Scripted[0]"},
		{"bad negative disk", Plan{Bad: []BadRange{{Disk: -1, From: 0, To: 1}}}, "Bad[0]"},
		{"bad inverted range", Plan{Bad: []BadRange{{Disk: 0, From: 9, To: 3}}}, "Bad[0]"},
		{"negative fail time", Plan{FailAt: -1}, "FailAt"},
		{"fail time without disk", Plan{FailDisk: -1, FailAt: 10}, "FailDisk"},
		{"rebuild without failure", Plan{Rebuild: true, RebuildBlocks: 4}, "Rebuild"},
		{"rebuild without blocks", Plan{Rebuild: true, FailDisk: 0, FailAt: 10}, "RebuildBlocks"},
		{"negative rebuild interval", Plan{RebuildInterval: -1}, "RebuildInterval"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want error mentioning %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestNewAppliesDefaults(t *testing.T) {
	in := newQuiet(t, Plan{TransientRate: 0.1}, 100)
	if p := in.Plan(); p.MaxRetries != DefaultMaxRetries || p.RetryBase != DefaultRetryBase {
		t.Errorf("defaults not applied: MaxRetries=%d RetryBase=%d", p.MaxRetries, p.RetryBase)
	}
	// Negative MaxRetries means "no retries at all".
	in = newQuiet(t, Plan{TransientRate: 1, MaxRetries: -1}, 100)
	if got := in.Plan().MaxRetries; got != 0 {
		t.Errorf("MaxRetries -1 normalized to %d, want 0", got)
	}
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(0, 10, r, 0); v != Exhausted {
		t.Errorf("no-retry plan ruled %v on a guaranteed fault, want Exhausted", v)
	}
	// A zero-cylinder geometry still yields a legal spare cylinder.
	in = newQuiet(t, Plan{Bad: []BadRange{{Disk: 0, From: 0, To: 0}}}, 0)
	if in.remapCyl != 0 {
		t.Errorf("remapCyl = %d for 0 cylinders, want 0", in.remapCyl)
	}
	if _, err := New(Plan{TransientRate: 2, Metrics: &Metrics{}}, 100); err == nil {
		t.Error("New accepted an invalid plan")
	}
}

func TestBackoffDoublesPerAttempt(t *testing.T) {
	in := newQuiet(t, Plan{TransientRate: 1, MaxRetries: 4, RetryBase: 1_000}, 100)
	r := &core.Request{ID: 1}
	want := []int64{1_000, 2_000, 4_000, 8_000}
	for i, w := range want {
		v, delay := in.Outcome(0, 10, r, int64(i))
		if v != Retry || delay != w {
			t.Fatalf("attempt %d: (%v, %d), want (Retry, %d)", i+1, v, delay, w)
		}
		if !in.Attempted(r) {
			t.Fatalf("attempt %d: Attempted(r) = false mid-retry", i+1)
		}
	}
	if v, _ := in.Outcome(0, 10, r, 99); v != Exhausted {
		t.Fatalf("attempt %d did not exhaust", len(want)+1)
	}
	if in.Attempted(r) {
		t.Error("Attempted(r) still true after exhaustion")
	}
	s := in.Stats()
	if s.Transients != 5 || s.Retries != 4 || s.Exhausted != 1 {
		t.Errorf("stats = %+v, want 5 transients, 4 retries, 1 exhausted", s)
	}
}

func TestOKClearsAttempts(t *testing.T) {
	in := newQuiet(t, Plan{Scripted: []Event{{Time: 0, Disk: 0, Cylinder: -1}}}, 100)
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(0, 10, r, 5); v != Retry {
		t.Fatal("scripted event did not fire")
	}
	if v, _ := in.Outcome(0, 10, r, 6); v != OK {
		t.Fatal("second completion not OK after the one-shot script")
	}
	if in.Attempted(r) {
		t.Error("attempt bookkeeping survived an OK completion")
	}
}

func TestScriptedEventMatchesCylinderAndTime(t *testing.T) {
	in := newQuiet(t, Plan{Scripted: []Event{{Time: 100, Disk: 1, Cylinder: 42}}}, 100)
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(1, 42, r, 50); v != OK {
		t.Error("event fired before its time")
	}
	if v, _ := in.Outcome(0, 42, r, 150); v != OK {
		t.Error("event fired on the wrong disk")
	}
	if v, _ := in.Outcome(1, 41, r, 150); v != OK {
		t.Error("event fired on the wrong cylinder")
	}
	if v, _ := in.Outcome(1, 42, r, 150); v != Retry {
		t.Error("event did not fire on its exact match")
	}
	if v, _ := in.Outcome(1, 42, &core.Request{ID: 2}, 200); v != OK {
		t.Error("one-shot event fired twice")
	}
}

func TestBadRangeRemapAndRedirect(t *testing.T) {
	in := newQuiet(t, Plan{Bad: []BadRange{{Disk: 0, From: 100, To: 200}}}, 1_000)
	// Before the first hit, dispatches are not redirected.
	if got := in.Redirect(0, 150); got != 150 {
		t.Errorf("Redirect before remap = %d, want 150", got)
	}
	r := &core.Request{ID: 1}
	if v, delay := in.Outcome(0, 150, r, 10); v != Retry || delay != 0 {
		t.Fatalf("bad-range hit ruled (%v, %d), want (Retry, 0)", v, delay)
	}
	// After the remap, the whole range redirects to the spare cylinder and
	// completions there succeed.
	if got := in.Redirect(0, 199); got != 999 {
		t.Errorf("Redirect after remap = %d, want 999", got)
	}
	if got := in.Redirect(0, 99); got != 99 {
		t.Errorf("Redirect outside the range = %d, want 99", got)
	}
	if got := in.Redirect(1, 150); got != 150 {
		t.Errorf("Redirect on another disk = %d, want 150", got)
	}
	if v, _ := in.Outcome(0, 999, r, 20); v != OK {
		t.Error("completion at the spare cylinder did not succeed")
	}
	s := in.Stats()
	if s.BadSectorHits != 1 || s.Remaps != 1 || s.RemapHits != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 remap, 1 remap hit", s)
	}
}

func TestDiskFailureLifecycle(t *testing.T) {
	in := newQuiet(t, Plan{FailDisk: 2, FailAt: 1_000}, 100)
	if in.Down(2) {
		t.Fatal("disk down before FailNow")
	}
	if _, ok := in.DownDisk(); ok {
		t.Fatal("DownDisk reported a failure before FailNow")
	}
	in.FailNow(1_000)
	if !in.Down(2) || in.Down(1) {
		t.Fatal("Down() wrong after FailNow")
	}
	if d, ok := in.DownDisk(); !ok || d != 2 {
		t.Fatalf("DownDisk = (%d, %v), want (2, true)", d, ok)
	}
	// In-flight completions on the dead disk are lost and forgotten.
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(2, 10, r, 1_100); v != Lost {
		t.Fatal("completion on the dead disk not ruled Lost")
	}
	if in.Attempted(r) {
		t.Error("lost request kept attempt bookkeeping")
	}
	// Survivors keep serving.
	if v, _ := in.Outcome(1, 10, r, 1_200); v != OK {
		t.Fatal("survivor completion not OK")
	}
	in.MarkRebuilt(5_000)
	if in.Down(2) {
		t.Fatal("disk still down after MarkRebuilt")
	}
	s := in.Stats()
	if s.FailedAt != 1_000 || s.RebuiltAt != 5_000 || s.LostInFlight != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDegradedWindow(t *testing.T) {
	cases := []struct {
		name     string
		stats    Stats
		makespan int64
		want     int64
	}{
		{"never failed", Stats{}, 10_000, 0},
		{"failed and rebuilt", Stats{FailedAt: 2_000, RebuiltAt: 7_000}, 10_000, 5_000},
		{"failed, never rebuilt", Stats{FailedAt: 2_000}, 10_000, 8_000},
	}
	for _, tc := range cases {
		if got := tc.stats.DegradedWindow(tc.makespan); got != tc.want {
			t.Errorf("%s: DegradedWindow(%d) = %d, want %d", tc.name, tc.makespan, got, tc.want)
		}
	}
}

func TestProbabilisticTransientsDeterministic(t *testing.T) {
	run := func() []Verdict {
		in := newQuiet(t, Plan{Seed: 42, TransientRate: 0.3, MaxRetries: 1}, 100)
		var out []Verdict
		for i := 0; i < 200; i++ {
			r := &core.Request{ID: uint64(i)}
			v, _ := in.Outcome(0, i%100, r, int64(i))
			out = append(out, v)
		}
		return out
	}
	a, b := run(), run()
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d diverged between identical injectors: %v vs %v", i, a[i], b[i])
		}
		if a[i] != OK {
			faults++
		}
	}
	// With rate 0.3 over 200 draws, some but not all must fault.
	if faults == 0 || faults == len(a) {
		t.Errorf("implausible fault count %d/200 at rate 0.3", faults)
	}
}

func TestForgetDropsBookkeeping(t *testing.T) {
	in := newQuiet(t, Plan{TransientRate: 1, MaxRetries: 3}, 100)
	r := &core.Request{ID: 1}
	if v, _ := in.Outcome(0, 10, r, 0); v != Retry {
		t.Fatal("guaranteed fault did not retry")
	}
	in.Forget(r)
	if in.Attempted(r) {
		t.Error("Attempted(r) true after Forget")
	}
}

func TestMetricsRegister(t *testing.T) {
	// RegisterStruct must cover every field; a second registration under a
	// different prefix proves the names are prefix-scoped, and the same
	// prefix twice must collide.
	m := &Metrics{}
	reg := obs.NewRegistry()
	reg.MustRegisterStruct("a", m)
	reg.MustRegisterStruct("b", m)
	if err := reg.RegisterStruct("a", m); err == nil {
		t.Error("re-registering the same prefix did not error")
	}
}
