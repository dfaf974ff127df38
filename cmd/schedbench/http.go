package main

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"

	"sfcsched/internal/cluster"
	"sfcsched/internal/core"
	"sfcsched/internal/fault"
	"sfcsched/internal/obs"
	"sfcsched/internal/serve"
	"sfcsched/internal/sim"
)

// publishOnce guards the process-global expvar namespace: expvar.Publish
// panics on duplicates, and tests build more than one mux.
var publishOnce sync.Once

// metricSets lists every process-wide metrics aggregate /metrics exports,
// each with its name prefix.
var metricSets = []struct {
	prefix  string
	metrics any
}{
	{"sfcsched", core.DefaultMetrics},
	{"sfcsched_fault", fault.DefaultMetrics},
	{"sfcsched_decision", sim.DefaultDecisionMetrics},
	{"sfcsched_cluster", cluster.DefaultMetrics},
	{"sfcsched_serve", serve.DefaultMetrics},
	{"sfcsched_calib", serve.DefaultCalibMetrics},
}

// newObsMux builds the observability endpoint: /metrics (Prometheus text
// format over the metricSets aggregates), /debug/vars
// (expvar, including the same snapshot under "sfcsched"), and the pprof
// suite under /debug/pprof/.
func newObsMux() *http.ServeMux {
	reg := obs.NewRegistry()
	for _, s := range metricSets {
		reg.MustRegisterStruct(s.prefix, s.metrics)
	}
	publishOnce.Do(func() { reg.PublishExpvar("sfcsched") })

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveObs starts the observability server on addr and returns the bound
// listener (so ":0" is usable). The server runs until the process exits.
func serveObs(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("schedbench: -http listen: %w", err)
	}
	srv := &http.Server{Handler: newObsMux()}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}
