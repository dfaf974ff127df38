package serve

import "sfcsched/internal/obs"

// Metrics aggregates the serving layer's observability counters, exported
// under the sfcsched_serve_* prefix. Every Dispatcher reports into
// DefaultMetrics unless Config.Metrics overrides it, mirroring the
// core.Metrics wiring.
type Metrics struct {
	// Submitted counts requests accepted into the scheduler by Submit.
	Submitted obs.Counter `metric:"submitted" help:"requests accepted into the serving scheduler"`
	// Rejected counts submissions refused because the ingress was closed.
	Rejected obs.Counter `metric:"rejected" help:"submissions refused by a closed ingress"`
	// Dispatched counts requests the dispatcher's workers took for the backend
	// (plus drops: every dequeue is a dispatch decision).
	Dispatched obs.Counter `metric:"dispatched" help:"dispatch decisions (services plus drops)"`
	// Completed counts services the backend finished successfully.
	Completed obs.Counter `metric:"completed" help:"services completed by the backend"`
	// Dropped counts requests discarded at dispatch because their deadline
	// had already passed (Config.DropLate).
	Dropped obs.Counter `metric:"dropped" help:"requests dropped at dispatch past their deadline"`
	// Abandoned counts requests whose service was cut short by Stop or
	// context cancellation, plus requests still queued at Stop.
	Abandoned obs.Counter `metric:"abandoned" help:"requests abandoned by Stop or cancellation"`
	// BackpressureWaits counts Submit calls that blocked on the MaxQueue
	// quota before entering the scheduler.
	BackpressureWaits obs.Counter `metric:"backpressure_waits" help:"Submit calls that blocked on the queue quota"`
	// Drains counts completed graceful shutdowns.
	Drains obs.Counter `metric:"drains" help:"completed graceful shutdowns"`
	// HeadTravelCylinders accumulates emulated head movement.
	HeadTravelCylinders obs.Counter `metric:"head_travel_cylinders" help:"cumulative emulated head movement"`
	// InFlight is the number of services currently running on the backend.
	InFlight obs.Gauge `metric:"inflight" help:"services currently running on the backend"`
	// ModelLatency is the distribution of arrival-to-completion time on the
	// model clock, microseconds — directly comparable with the simulator's
	// response times.
	ModelLatency obs.Histogram `metric:"model_latency_us" help:"arrival-to-completion time on the model clock, microseconds"`
	// WallService is the distribution of wall-clock time spent per backend
	// service, microseconds: what the dilated sleep actually cost.
	WallService obs.Histogram `metric:"wall_service_us" help:"wall-clock time per backend service, microseconds"`
}

// DefaultMetrics is the process-wide aggregate every Dispatcher reports
// into unless overridden via Config.Metrics.
var DefaultMetrics = &Metrics{}

// CalibMetrics exposes the latest calibration scores under the
// sfcsched_calib_* prefix. Scores are float ratios stored in gauges as
// parts per million (the obs gauges are integral): 1_000_000 ppm = a MAPE
// of 100% or a correlation of 1.0.
type CalibMetrics struct {
	// Runs counts completed calibration runs.
	Runs obs.Counter `metric:"runs" help:"completed calibration runs"`
	// AlignedRequests counts requests matched between the simulated and
	// live records across all runs.
	AlignedRequests obs.Counter `metric:"aligned_requests" help:"requests matched between sim and live records"`
	// LatencyMAPEPpm is the last run's per-request latency MAPE, ppm
	// (1e6 = 100%). -1 when the score was undefined.
	LatencyMAPEPpm obs.Gauge `metric:"latency_mape_ppm" help:"last run's per-request latency MAPE, ppm (1e6 = 100%)"`
	// OrderPearsonPpm is the last run's Pearson correlation between
	// simulated and live dispatch ranks, ppm (1e6 = r of 1.0). -2e6 when
	// the score was undefined.
	OrderPearsonPpm obs.Gauge `metric:"order_pearson_ppm" help:"last run's dispatch-order Pearson r, ppm (1e6 = 1.0)"`
	// HeadTravelDeltaPpm is the last run's live-vs-sim head-travel
	// difference relative to sim, ppm.
	HeadTravelDeltaPpm obs.Gauge `metric:"head_travel_delta_ppm" help:"last run's (live-sim)/sim head-travel delta, ppm"`
}

// DefaultCalibMetrics is the process-wide aggregate Calibrate reports into
// unless overridden via CalibrationConfig.CalibMetrics.
var DefaultCalibMetrics = &CalibMetrics{}
