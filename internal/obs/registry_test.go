package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("ok_name", "", &Counter{}); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if err := r.Register("ok_name", "", &Counter{}); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := r.Register("bad name", "", &Counter{}); err == nil {
		t.Error("malformed name accepted")
	}
	if err := r.Register("bad_type", "", 42); err == nil {
		t.Error("unsupported type accepted")
	}
	if err := r.Register("fn", "", func() float64 { return 1.5 }); err != nil {
		t.Errorf("func metric rejected: %v", err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(7)
	var g Gauge
	g.Set(-2)
	var m MaxGauge
	m.Observe(31)
	var h Histogram
	h.Observe(0)
	h.Observe(5)
	h.Observe(5)
	r.MustRegister("events", "number of events", &c)
	r.MustRegister("depth", "current depth", &g)
	r.MustRegister("depth_hiwater", "", &m)
	r.MustRegister("wait_us", "dispatch wait", &h)
	r.MustRegister("ratio", "", func() float64 { return 0.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP events_total number of events",
		"# TYPE events_total counter",
		"events_total 7",
		"# TYPE depth gauge",
		"depth -2",
		"depth_hiwater 31",
		"# TYPE wait_us histogram",
		`wait_us_bucket{le="0"} 1`,
		`wait_us_bucket{le="7"} 3`, // cumulative: bucket 3 covers [4,8)
		`wait_us_bucket{le="+Inf"} 3`,
		"wait_us_sum 10",
		"wait_us_count 3",
		"ratio 0.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestHandlerAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	var h Histogram
	h.Observe(9)
	r.MustRegister("c", "", &c)
	r.MustRegister("h", "", &h)

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "c_total 3") {
		t.Errorf("handler body missing counter:\n%s", rec.Body.String())
	}

	// Snapshot must be JSON-serializable (it backs the expvar export).
	snap := r.Snapshot()
	bs, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not JSON-serializable: %v", err)
	}
	var back map[string]any
	if err := json.Unmarshal(bs, &back); err != nil {
		t.Fatal(err)
	}
	if back["c"].(float64) != 3 {
		t.Errorf("snapshot counter = %v", back["c"])
	}
	hm := back["h"].(map[string]any)
	if hm["count"].(float64) != 1 || hm["sum"].(float64) != 9 {
		t.Errorf("snapshot histogram = %v", hm)
	}
}

func TestRegisterStruct(t *testing.T) {
	var m struct {
		Hits  Counter   `metric:"hits" help:"cache hits"`
		Depth Gauge     `metric:"depth"`
		Peak  MaxGauge  `metric:"peak" help:"high water"`
		Wait  Histogram `metric:"wait_us" help:"wait"`
		Name  string    // untagged non-metric fields are skipped
		n     int
	}
	m.Hits.Add(2)
	r := NewRegistry()
	r.MustRegisterStruct("app", &m)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP app_hits_total cache hits\n# TYPE app_hits_total counter\napp_hits_total 2\n",
		"# TYPE app_depth gauge\napp_depth 0\n",
		"# HELP app_peak high water\n",
		"# TYPE app_wait_us histogram\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, b.String())
		}
	}
	if strings.Contains(b.String(), "# HELP app_depth") {
		t.Error("empty help tag emitted a HELP line")
	}
	if n := len(r.Snapshot()); n != 4 {
		t.Errorf("snapshot has %d metrics, want 4", n)
	}
}

func TestRegisterStructErrors(t *testing.T) {
	type ok struct {
		C Counter `metric:"c"`
	}
	cases := []struct {
		name string
		m    any
		want string
	}{
		{"nil", nil, "pointer to a struct"},
		{"non-pointer", ok{}, "pointer to a struct"},
		{"non-struct", new(int), "pointer to a struct"},
		{"untagged-counter", &struct{ C Counter }{}, "no metric tag"},
		{"untagged-histogram", &struct {
			C Counter `metric:"c"`
			H Histogram
		}{}, "no metric tag"},
		{"tagged-int", &struct {
			N int `metric:"n"`
		}{}, "exported obs metric"},
		{"tagged-pointer", &struct {
			C *Counter `metric:"c"`
		}{}, "exported obs metric"},
		{"tagged-unexported", &struct {
			c Counter `metric:"c"`
		}{}, "exported obs metric"},
		{"bad-name", &struct {
			C Counter `metric:"has space"`
		}{}, "invalid metric name"},
		{"duplicate-tag", &struct {
			A Counter `metric:"x"`
			B Gauge   `metric:"x"`
		}{}, "duplicate metric"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := NewRegistry().RegisterStruct("p", tc.m)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want mention of %q", err, tc.want)
			}
		})
	}
	// The same struct under the same prefix twice collides in Register.
	r := NewRegistry()
	r.MustRegisterStruct("p", &ok{})
	if err := r.RegisterStruct("p", &ok{}); err == nil || !strings.Contains(err.Error(), "duplicate metric") {
		t.Errorf("re-registration error %v, want duplicate metric", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegisterStruct did not panic on a bad argument")
		}
	}()
	r.MustRegisterStruct("q", ok{})
}
