package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/obs"
)

// TestMetricsExpositionGolden builds the registry newObsMux builds, over
// zero-valued copies of the same aggregates, and pins its Prometheus text
// and its Snapshot key set byte for byte: every name, HELP and TYPE line
// comes from the metric struct tags, so a renamed or retyped field shows
// up here.
func TestMetricsExpositionGolden(t *testing.T) {
	reg := obs.NewRegistry()
	for _, s := range metricSets {
		zero := reflect.New(reflect.TypeOf(s.metrics).Elem()).Interface()
		if err := reg.RegisterStruct(s.prefix, zero); err != nil {
			t.Fatal(err)
		}
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range reg.Snapshot() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"testdata/metrics.prom", prom.Bytes()},
		{"testdata/snapshot_keys.txt", []byte(strings.Join(keys, "\n") + "\n")},
	} {
		want, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s differs:\ngot:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}

func TestObsEndpoints(t *testing.T) {
	// Generate some scheduler traffic so /metrics shows non-zero counters.
	s := core.MustScheduler("t", core.EncapsulatorConfig{Levels: 8},
		core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	for i := 0; i < 5; i++ {
		s.Add(&core.Request{ID: uint64(i), Priorities: []int{i % 8}}, int64(i), 0)
	}
	for s.Next(10, 0) != nil {
	}

	srv := httptest.NewServer(newObsMux())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE sfcsched_adds_total counter",
		"sfcsched_adds_total",
		"# TYPE sfcsched_dispatch_wait_us histogram",
		"sfcsched_dispatch_wait_us_count",
		"# TYPE sfcsched_decision_decisions_total counter",
		"sfcsched_decision_shadow_disagreements_total",
		"sfcsched_decision_candidate_depth_count",
		"# TYPE sfcsched_cluster_arrivals_total counter",
		"sfcsched_cluster_latency_us_count",
		"sfcsched_cluster_node_depth_max",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	if !strings.Contains(body, `"sfcsched"`) {
		t.Errorf("/debug/vars missing sfcsched snapshot:\n%s", body)
	}

	code, body = get("/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

func TestServeObsBindsAndServes(t *testing.T) {
	ln, err := serveObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics over -http listener: status %d", resp.StatusCode)
	}
}
