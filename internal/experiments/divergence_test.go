package experiments

import (
	"bytes"
	"reflect"
	"testing"
)

// smallDivergence shrinks the default sweep for fast shape and
// determinism checks.
func smallDivergence() DivergenceConfig {
	cfg := DefaultDivergenceConfig()
	cfg.Requests = 500
	cfg.Interarrivals = []int64{24_000, 12_000, 7_000}
	return cfg
}

func TestDivergenceShape(t *testing.T) {
	disagree, travel, err := Divergence(smallDivergence())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{disagree, travel} {
		if len(res.X) != 3 {
			t.Fatalf("%s: x-axis has %d points, want 3", res.Title, len(res.X))
		}
		if len(res.Series) != 3 {
			t.Fatalf("%s: %d shadow series, want 3", res.Title, len(res.Series))
		}
		for _, s := range res.Series {
			if len(s.Y) != len(res.X) {
				t.Fatalf("%s: series %q has %d points, want %d", res.Title, s.Name, len(s.Y), len(res.X))
			}
		}
	}
	// The load axis must render as offered rate, increasing.
	for i := 1; i < len(disagree.X); i++ {
		if disagree.X[i] <= disagree.X[i-1] {
			t.Fatalf("load axis not increasing: %v", disagree.X)
		}
	}
	// Genuinely different policies must disagree under load; rates live in
	// [0, 100].
	last := len(disagree.X) - 1
	for _, name := range []string{"scan-edf", "fcfs", "cascaded-w20"} {
		ys := series(t, disagree, name)
		if ys[last] <= 0 {
			t.Errorf("%s never disagreed with the primary at top load", name)
		}
		for i, y := range ys {
			if y < 0 || y > 100 {
				t.Errorf("%s: disagreement %v%% at point %d outside [0,100]", name, y, i)
			}
		}
	}
}

func TestDivergenceDeterministic(t *testing.T) {
	cfg := smallDivergence()
	a1, b1, err := Divergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := Divergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("divergence sweep diverged between identical runs")
	}
}

func divergenceCSV(t *testing.T, workers int) []byte {
	t.Helper()
	cfg := smallDivergence()
	cfg.Workers = workers
	disagree, travel, err := Divergence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	disagree.RenderCSV(&buf)
	travel.RenderCSV(&buf)
	return buf.Bytes()
}

func TestDivergenceIdenticalAcrossWorkers(t *testing.T) {
	want := divergenceCSV(t, 1)
	for _, w := range []int{2, 8} {
		if got := divergenceCSV(t, w); !bytes.Equal(got, want) {
			t.Errorf("divergence CSV diverges at workers=%d:\nworkers=1:\n%s\nworkers=%d:\n%s",
				w, want, w, got)
		}
	}
}
