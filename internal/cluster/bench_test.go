package cluster

import (
	"testing"

	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// BenchmarkClusterDispatch measures the cluster dispatch path end to end:
// admission ruling, routing over live queue depths, block→stripe mapping
// and the engine's dispatch/completion cycle, reported as simulated
// requests per second.
func BenchmarkClusterDispatch(b *testing.B) {
	base := Config{
		Nodes: 4, DisksPerNode: 2, Disk: testDisk(b),
		NewScheduler: func(int, int) (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil },
		DropLate:     true, Seed: 7, Metrics: &Metrics{},
	}
	trace := workload.Must(workload.Open{
		Seed: 1, Count: 10_000, MeanInterarrival: 1500,
		Dims: 1, Levels: 4,
		DeadlineMin: 100_000, DeadlineMax: 400_000,
		Cylinders: base.MaxBlocks(), Size: 64 << 10,
		Tenants: 8, TenantSkew: 1.2, Classes: 3, TenantZones: true,
	}.Generate())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := base
		cfg.Router = &RoundRobin{} // stateful: fresh per run, as sweeps do
		tb, err := NewTokenBucket(3, 400, 50)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Admission = tb
		MustRun(cfg, trace)
	}
	b.StopTimer()
	reqs := float64(len(trace)) * float64(b.N)
	b.ReportMetric(reqs/b.Elapsed().Seconds(), "req/s")
}
