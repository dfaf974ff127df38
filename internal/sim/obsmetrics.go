package sim

import "sfcsched/internal/obs"

// DecisionMetrics aggregates the decision-observability counters of the
// package: decision-trace captures, shadow-scheduler divergence and
// telemetry sampling activity. It mirrors core.Metrics: atomic fields, a
// process-wide default, per-instance override via the owning object
// (DecisionTrace.SetMetrics, Shadow.SetMetrics, Telemetry.SetMetrics).
//
// Nothing here is touched while decision tracing, shadows and telemetry
// are all disabled, so the zero-overhead guarantee of the plain simulation
// path is unaffected.
type DecisionMetrics struct {
	// Decisions counts captured dispatch decisions (served or dropped).
	Decisions obs.Counter `metric:"decisions" help:"dispatch decisions captured by decision tracing"`
	// Drops counts captured decisions that were deadline drops.
	Drops obs.Counter `metric:"drops" help:"captured decisions that were deadline drops"`
	// CandidateDepth is the distribution of candidate-set sizes at
	// decision time (the queue depth the dispatcher chose from).
	CandidateDepth obs.Histogram `metric:"candidate_depth" help:"candidate-set size at decision time"`
	// ChoiceSlack is the distribution of the chosen request's deadline
	// slack at dispatch, µs (negative slack clamps to 0; requests without
	// deadlines are not recorded).
	ChoiceSlack obs.Histogram `metric:"choice_slack_us" help:"deadline slack of the chosen request at dispatch, microseconds"`
	// ShadowDecisions counts primary dispatches observed by shadows.
	ShadowDecisions obs.Counter `metric:"shadow_decisions" help:"primary dispatches observed by shadow schedulers"`
	// ShadowDisagreements counts shadow decisions that picked a different
	// request than the primary scheduler.
	ShadowDisagreements obs.Counter `metric:"shadow_disagreements" help:"shadow choices that differed from the primary"`
	// TelemetrySamples counts telemetry rows recorded (one per station per
	// sampling boundary).
	TelemetrySamples obs.Counter `metric:"telemetry_samples" help:"telemetry rows recorded"`
}

// DefaultDecisionMetrics is the process-wide aggregate every DecisionTrace,
// Shadow and Telemetry reports into unless overridden.
var DefaultDecisionMetrics = &DecisionMetrics{}
