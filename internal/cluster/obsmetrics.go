package cluster

import "sfcsched/internal/obs"

// Metrics aggregates the cluster-layer counters: admission outcomes,
// routing activity and per-request completion latency. It mirrors
// core.Metrics: atomic fields, a process-wide default, per-run override
// via Config.Metrics.
type Metrics struct {
	// Arrivals counts requests offered to the cluster.
	Arrivals obs.Counter `metric:"arrivals" help:"requests offered to the cluster"`
	// AdmitDropped counts requests rejected by admission control.
	AdmitDropped obs.Counter `metric:"admit_dropped" help:"requests rejected by admission control"`
	// Routed counts admitted requests handed to a node.
	Routed obs.Counter `metric:"routed" help:"admitted requests handed to a node"`
	// Served counts completed services.
	Served obs.Counter `metric:"served" help:"completed services"`
	// DispatchDropped counts requests dropped at dispatch time (deadline
	// expired under DropLate).
	DispatchDropped obs.Counter `metric:"dispatch_dropped" help:"requests dropped at dispatch (deadline expired)"`
	// LateStarts counts services that started past their deadline
	// (without DropLate).
	LateStarts obs.Counter `metric:"late_starts" help:"services started past their deadline"`
	// LatencyUS is the completion latency distribution of served
	// requests (completion − arrival), µs.
	LatencyUS obs.Histogram `metric:"latency_us" help:"completion latency of served requests, microseconds"`
	// NodeDepthMax is the high-water backlog of the routed node observed
	// at routing time.
	NodeDepthMax obs.MaxGauge `metric:"node_depth_max" help:"high-water backlog of the routed node"`
}

// DefaultMetrics is the process-wide aggregate every cluster run reports
// into unless overridden via Config.Metrics.
var DefaultMetrics = &Metrics{}
