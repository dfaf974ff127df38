package core

import "sfcsched/internal/obs"

// Metrics aggregates the scheduler's runtime observability counters. All
// fields are safe for concurrent update and may be scraped (via an
// obs.Registry) while dispatch loops are running; every record is a few
// atomic instructions, so the Add/Next zero-allocation gates hold with
// instrumentation enabled.
//
// By default every Dispatcher and Scheduler reports into
// the process-wide DefaultMetrics aggregate, which needs no wiring: a
// binary can register it once (obs.Registry.RegisterStruct reads the
// field tags) and observe all
// scheduler activity in the process. Tests and multi-scheduler servers that
// need per-instance counts install their own instance with SetMetrics.
type Metrics struct {
	// Adds counts requests enqueued (Add and AddBatch items).
	Adds obs.Counter `metric:"adds" help:"requests enqueued"`
	// Dispatches counts requests handed out by Next.
	Dispatches obs.Counter `metric:"dispatches" help:"requests dispatched"`
	// QueueDepthHiWater tracks the largest queue depth seen at enqueue.
	QueueDepthHiWater obs.MaxGauge `metric:"queue_depth_hiwater" help:"largest queue depth seen at enqueue"`

	// Preemptions counts arrivals that jumped into the serving queue
	// (ConditionallyPreemptive mode).
	Preemptions obs.Counter `metric:"preemptions" help:"arrivals that preempted into the serving queue"`
	// Promotions counts SP promotions from q' into q.
	Promotions obs.Counter `metric:"promotions" help:"SP promotions from the waiting queue"`
	// Swaps counts q/q' batch swaps.
	Swaps obs.Counter `metric:"swaps" help:"serving/waiting queue batch swaps"`
	// WindowExpansions counts ER blocking-window growth events.
	WindowExpansions obs.Counter `metric:"window_expansions" help:"ER blocking-window growth events"`
	// WindowResets counts ER window resets back to the configured width.
	WindowResets obs.Counter `metric:"window_resets" help:"ER blocking-window resets"`

	// SweepProgress is the cumulative number of cylinders the head has
	// swept (cyclically) on the SFC3 scan timeline.
	SweepProgress obs.Gauge `metric:"sweep_progress_cylinders" help:"cumulative cylinders swept on the scan timeline"`

	// DispatchWait is the distribution of simulated queueing delay: the
	// time from a request's arrival to its dispatch, in the scheduler's
	// clock units (microseconds throughout this repo).
	DispatchWait obs.Histogram `metric:"dispatch_wait_us" help:"arrival-to-dispatch delay, microseconds"`
}

// DefaultMetrics is the process-wide aggregate every scheduler reports into
// unless overridden with SetMetrics.
var DefaultMetrics = &Metrics{}

// noteDispatch records a dispatch and its queueing delay at time now.
func (m *Metrics) noteDispatch(r *Request, now int64) {
	m.Dispatches.Inc()
	if w := now - r.Arrival; w >= 0 {
		m.DispatchWait.Observe(uint64(w))
	}
}
