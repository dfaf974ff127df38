package fault

import "sfcsched/internal/obs"

// Metrics aggregates fault-injection observability counters, mirroring
// core.Metrics: atomic fields, a process-wide default, and per-plan
// override via Plan.Metrics.
type Metrics struct {
	// Transients counts injected transient read errors.
	Transients obs.Counter `metric:"transients" help:"injected transient read errors"`
	// Retries counts request re-enqueues (backoff retries + remap retries).
	Retries obs.Counter `metric:"retries" help:"fault-induced request re-enqueues"`
	// Exhausted counts requests abandoned after the retry budget.
	Exhausted obs.Counter `metric:"exhausted" help:"requests abandoned after the retry budget"`
	// BadSectorHits counts first touches of latent bad ranges.
	BadSectorHits obs.Counter `metric:"bad_sector_hits" help:"first touches of latent bad ranges"`
	// Remaps counts bad ranges remapped to the spare area.
	Remaps obs.Counter `metric:"remaps" help:"bad ranges remapped to the spare area"`
	// RemapHits counts dispatches redirected into the spare area.
	RemapHits obs.Counter `metric:"remap_hits" help:"dispatches redirected to the spare area"`
	// DiskFailures counts whole-disk failures.
	DiskFailures obs.Counter `metric:"disk_failures" help:"whole-disk failures"`
	// ReconstructReads counts survivor reads issued to serve degraded
	// reads of a failed disk.
	ReconstructReads obs.Counter `metric:"reconstruct_reads" help:"survivor reads serving degraded reads"`
	// RebuildReads counts survivor reads issued by the background rebuild.
	RebuildReads obs.Counter `metric:"rebuild_reads" help:"survivor reads issued by the rebuild"`

	// Degraded is 1 while a disk is down, 0 otherwise.
	Degraded obs.Gauge `metric:"degraded" help:"1 while a disk is down"`
	// RebuildProgress is the number of per-disk blocks rebuilt so far.
	RebuildProgress obs.Gauge `metric:"rebuild_progress_blocks" help:"per-disk blocks rebuilt so far"`
	// DegradedWindowUs is the duration of the last completed degraded
	// window (failure to rebuild completion), µs.
	DegradedWindowUs obs.Gauge `metric:"degraded_window_us" help:"duration of the last degraded window, microseconds"`
}

// DefaultMetrics is the process-wide aggregate every injector reports
// into unless the plan overrides it.
var DefaultMetrics = &Metrics{}
