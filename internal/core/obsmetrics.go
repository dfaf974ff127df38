package core

import (
	"sfcsched/internal/obs"
)

// Metrics aggregates the scheduler's runtime observability counters. All
// fields are safe for concurrent update and may be scraped (via an
// obs.Registry) while dispatch loops are running; every record is a few
// atomic instructions, so the Add/Next zero-allocation gates hold with
// instrumentation enabled.
//
// By default every Dispatcher and Scheduler reports into
// the process-wide DefaultMetrics aggregate, which needs no wiring: a
// binary can register it once (see Metrics.Register) and observe all
// scheduler activity in the process. Tests and multi-scheduler servers that
// need per-instance counts install their own instance with SetMetrics.
type Metrics struct {
	// Adds counts requests enqueued (Add and AddBatch items).
	Adds obs.Counter
	// Dispatches counts requests handed out by Next.
	Dispatches obs.Counter
	// QueueDepthHiWater tracks the largest queue depth seen at enqueue.
	QueueDepthHiWater obs.MaxGauge

	// Preemptions counts arrivals that jumped into the serving queue
	// (ConditionallyPreemptive mode).
	Preemptions obs.Counter
	// Promotions counts SP promotions from q' into q.
	Promotions obs.Counter
	// Swaps counts q/q' batch swaps.
	Swaps obs.Counter
	// WindowExpansions counts ER blocking-window growth events.
	WindowExpansions obs.Counter
	// WindowResets counts ER window resets back to the configured width.
	WindowResets obs.Counter

	// SweepProgress is the cumulative number of cylinders the head has
	// swept (cyclically) on the SFC3 scan timeline.
	SweepProgress obs.Gauge

	// DispatchWait is the distribution of simulated queueing delay: the
	// time from a request's arrival to its dispatch, in the scheduler's
	// clock units (microseconds throughout this repo).
	DispatchWait obs.Histogram
}

// DefaultMetrics is the process-wide aggregate every scheduler reports into
// unless overridden with SetMetrics.
var DefaultMetrics = &Metrics{}

// Register registers every field of m under prefix (e.g. "sfcsched") in
// reg. Metric names follow Prometheus conventions; counters gain a _total
// suffix at export time.
func (m *Metrics) Register(reg *obs.Registry, prefix string) error {
	type entry struct {
		name, help string
		v          any
	}
	for _, e := range []entry{
		{"adds", "requests enqueued", &m.Adds},
		{"dispatches", "requests dispatched", &m.Dispatches},
		{"queue_depth_hiwater", "largest queue depth seen at enqueue", &m.QueueDepthHiWater},
		{"preemptions", "arrivals that preempted into the serving queue", &m.Preemptions},
		{"promotions", "SP promotions from the waiting queue", &m.Promotions},
		{"swaps", "serving/waiting queue batch swaps", &m.Swaps},
		{"window_expansions", "ER blocking-window growth events", &m.WindowExpansions},
		{"window_resets", "ER blocking-window resets", &m.WindowResets},
		{"sweep_progress_cylinders", "cumulative cylinders swept on the scan timeline", &m.SweepProgress},
		{"dispatch_wait_us", "arrival-to-dispatch delay, microseconds", &m.DispatchWait},
	} {
		if err := reg.Register(prefix+"_"+e.name, e.help, e.v); err != nil {
			return err
		}
	}
	return nil
}

// MustRegister is Register for static wiring.
func (m *Metrics) MustRegister(reg *obs.Registry, prefix string) {
	if err := m.Register(reg, prefix); err != nil {
		panic(err)
	}
}

// noteDispatch records a dispatch and its queueing delay at time now.
func (m *Metrics) noteDispatch(r *Request, now int64) {
	m.Dispatches.Inc()
	if w := now - r.Arrival; w >= 0 {
		m.DispatchWait.Observe(uint64(w))
	}
}
