// Package sfcsched's root benchmark suite regenerates every table and
// figure of the paper's evaluation (run `go test -bench=. -benchmem`) and
// measures the micro-costs of the building blocks. Experiment benches
// attach their headline metrics via b.ReportMetric so a bench run doubles
// as a results summary; cmd/schedbench prints the full tables.
package sfcsched

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/experiments"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// --- Table 1 ---

func BenchmarkTable1DiskModel(b *testing.B) {
	m := disk.MustModel(disk.QuantumXP32150Params())
	b.ReportMetric(m.MeanSeek()/1000, "mean-seek-ms")
	b.ReportMetric(float64(m.Capacity())/1e9, "capacity-GB")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ServiceTime(i%m.Cylinders, (i*37)%m.Cylinders, 64<<10)
	}
}

// --- Figure 5: priority inversion vs window size ---

func BenchmarkFig5PriorityInversion(b *testing.B) {
	cfg := experiments.DefaultSFC1Config()
	cfg.Requests = 1200
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(cfg, []float64{0, 5, 50})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, res, map[string]int{"peano-w0-pctFIFO": 0, "gray-w0-pctFIFO": 0})
		}
	}
}

// --- Figure 6: scalability with dimensionality ---

func BenchmarkFig6Scalability(b *testing.B) {
	cfg := experiments.DefaultSFC1Config()
	cfg.Requests = 1200
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(cfg, []float64{4, 12}, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, res, map[string]int{"peano-12d-pctFIFO": 1, "sweep-12d-pctFIFO": 1})
		}
	}
}

// --- Figure 7: fairness ---

func BenchmarkFig7Fairness(b *testing.B) {
	cfg := experiments.DefaultSFC1Config()
	cfg.Requests = 1200
	for i := 0; i < b.N; i++ {
		a, fav, err := experiments.Fig7(cfg, []float64{0, 5})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, a, map[string]int{"hilbert-stddev": 0, "sweep-stddev": 0})
			report(b, fav, map[string]int{"sweep-favored-pct": 0})
		}
	}
}

// --- Figure 8: deadline/priority balance ---

func BenchmarkFig8DeadlineBalance(b *testing.B) {
	cfg := experiments.DefaultSFC2Config()
	cfg.Requests = 2000
	for i := 0; i < b.N; i++ {
		_, misses, err := experiments.Fig8(cfg, []float64{0, 1, 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, misses, map[string]int{"sweep-f0-pctEDF": 0, "sweep-f8-pctEDF": 2})
		}
	}
}

// --- Figure 9: selectivity ---

func BenchmarkFig9Selectivity(b *testing.B) {
	cfg := experiments.DefaultSFC2Config()
	cfg.Requests = 2000
	cfg.Service = 26_000
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig9(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Selectivity headline: sweep's top-level misses in its
			// favored (last) dimension should be near zero.
			last := rs[len(rs)-1]
			for _, s := range last.Series {
				if s.Name == "sweep" {
					b.ReportMetric(s.Y[0], "sweep-favdim-toplevel-misses")
				}
			}
		}
	}
}

// --- Figure 10: seek optimization ---

func BenchmarkFig10SeekOptimization(b *testing.B) {
	cfg := experiments.DefaultSFC3Config()
	cfg.Requests = 2500
	for i := 0; i < b.N; i++ {
		_, misses, seek, err := experiments.Fig10(cfg, []float64{1, 3, 16})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, misses, map[string]int{"cascaded-R3-xCSCAN": 1})
			report(b, seek, map[string]int{"cascaded-R1-seek-s": 0, "cascaded-R16-seek-s": 2})
		}
	}
}

// --- Figure 11: aggregate weighted losses ---

func BenchmarkFig11AggregateLosses(b *testing.B) {
	cfg := experiments.DefaultFig11Config()
	cfg.Users = []int{68, 91}
	cfg.Duration = 20_000_000
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, res, map[string]int{"fcfs-91u-cost": 1, "peano-91u-cost": 1})
		}
	}
}

// report attaches selected series points as bench metrics: keys map a
// metric name to the series point index; the series is identified by the
// name's prefix before the first '-'.
func report(b *testing.B, res *experiments.Result, keys map[string]int) {
	for name, idx := range keys {
		prefix := name
		for i := 0; i < len(name); i++ {
			if name[i] == '-' {
				prefix = name[:i]
				break
			}
		}
		for _, s := range res.Series {
			if s.Name == prefix && idx < len(s.Y) {
				b.ReportMetric(s.Y[idx], name)
			}
		}
	}
}

// --- Micro-benchmarks: curve index computation ---

func benchCurveIndex(b *testing.B, name string, dims int, side uint32) {
	c := sfc.MustNew(name, dims, side)
	p := make(sfc.Point, dims)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range p {
			p[d] = uint32((i * (d + 7)) % int(c.Side()))
		}
		sink += c.Index(p)
	}
	_ = sink
}

// benchCurveIndexFast is benchCurveIndex on the unchecked scratch-carrying
// hot path (what the Encapsulator calls per request).
func benchCurveIndexFast(b *testing.B, name string, dims int, side uint32) {
	c := sfc.MustNew(name, dims, side)
	p := make(sfc.Point, dims)
	scratch := make([]uint32, c.ScratchLen())
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range p {
			p[d] = uint32((i * (d + 7)) % int(c.Side()))
		}
		sink += c.IndexFast(p, scratch)
	}
	_ = sink
}

// benchCurveLUT measures the table-accelerated path on a grid small enough
// for sfc.Accelerate to wrap.
func benchCurveLUT(b *testing.B, name string, dims int, side uint32) {
	c := sfc.Accelerate(sfc.MustNew(name, dims, side))
	if _, ok := c.(*sfc.LUT); !ok {
		b.Fatalf("%s %dd/%d not LUT-accelerated", name, dims, side)
	}
	p := make(sfc.Point, dims)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := range p {
			p[d] = uint32((i * (d + 7)) % int(c.Side()))
		}
		sink += c.IndexFast(p, nil)
	}
	_ = sink
}

func BenchmarkSweepIndex4D(b *testing.B)    { benchCurveIndex(b, "sweep", 4, 16) }
func BenchmarkScanIndex4D(b *testing.B)     { benchCurveIndex(b, "scan", 4, 16) }
func BenchmarkGrayIndex4D(b *testing.B)     { benchCurveIndex(b, "gray", 4, 16) }
func BenchmarkHilbertIndex4D(b *testing.B)  { benchCurveIndex(b, "hilbert", 4, 16) }
func BenchmarkPeanoIndex4D(b *testing.B)    { benchCurveIndex(b, "peano", 4, 16) }
func BenchmarkSpiralIndex2D(b *testing.B)   { benchCurveIndex(b, "spiral", 2, 4095) }
func BenchmarkDiagonalIndex2D(b *testing.B) { benchCurveIndex(b, "diagonal", 2, 4096) }
func BenchmarkHilbertIndex12D(b *testing.B) { benchCurveIndex(b, "hilbert", 12, 16) }
func BenchmarkPeanoIndex12D(b *testing.B)   { benchCurveIndex(b, "peano", 12, 27) }

func BenchmarkHilbertIndexFast4D(b *testing.B)  { benchCurveIndexFast(b, "hilbert", 4, 16) }
func BenchmarkHilbertIndexFast12D(b *testing.B) { benchCurveIndexFast(b, "hilbert", 12, 16) }
func BenchmarkPeanoIndexFast4D(b *testing.B)    { benchCurveIndexFast(b, "peano", 4, 16) }
func BenchmarkHilbertLUT3D(b *testing.B)        { benchCurveLUT(b, "hilbert", 3, 8) }
func BenchmarkPeanoLUT3D(b *testing.B)          { benchCurveLUT(b, "peano", 3, 9) }

// --- Micro-benchmarks: encapsulation and dispatch ---

func BenchmarkEncapsulatorFullCascade(b *testing.B) {
	e := core.MustEncapsulator(core.EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 3, 8), Levels: 8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	})
	r := &core.Request{Priorities: []int{3, 1, 6}, Deadline: 600_000, Cylinder: 1200}
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += e.ValueAt(r, int64(i), i%3832, uint64(i))
	}
	_ = sink
}

func BenchmarkDispatcherAddNext(b *testing.B) {
	d := core.MustDispatcher(core.DispatcherConfig{
		Mode: core.ConditionallyPreemptive, Window: 1000, SP: true,
	})
	reqs := make([]*core.Request, 64)
	for i := range reqs {
		reqs[i] = &core.Request{ID: uint64(i)}
	}
	// Steady state: a standing queue of 4096 requests with one Add and one
	// Next per iteration, so queue depth is constant and any per-op heap
	// garbage shows up in the allocs column. (The seed version of this
	// bench computed `x % 1 << 20`, which is zero — every request carried
	// the same value — and let the queue grow without bound; the value
	// distribution below is the one it intended.)
	val := func(i int) uint64 { return uint64(i*2654435761) % (1 << 20) }
	for i := 0; i < 4096; i++ {
		d.Add(reqs[i%64], val(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(reqs[i%64], val(i))
		d.Next()
	}
}

func BenchmarkSchedulerAddBatch(b *testing.B) {
	s := core.MustScheduler("bench", core.EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 3, 8), Levels: 8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	batch := make([]*core.Request, 256)
	for i := range batch {
		batch[i] = &core.Request{
			ID: uint64(i), Priorities: []int{i % 8, (i * 3) % 8, (i * 5) % 8},
			Deadline: int64(500_000 + i*300), Cylinder: (i * 37) % 3832,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddBatch(batch, int64(i), i%3832)
		for s.Next(int64(i), i%3832) != nil {
		}
	}
	b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkConcurrentIngressSingleLock measures concurrent Add throughput
// through one mutex around the serial Scheduler — the path serve.Dispatcher's
// producers take. Run with `-cpu 1,2,4` and a fixed `-benchtime=Nx` to
// compare the same total work as GOMAXPROCS grows. Ingress-only by design:
// Next is single-consumer, and the criterion under test is producer-side
// contention.
func BenchmarkConcurrentIngressSingleLock(b *testing.B) {
	s := core.MustScheduler("bench", core.EncapsulatorConfig{
		Curve1: sfc.MustNew("hilbert", 3, 8), Levels: 8,
		UseDeadline: true, F: 1, DeadlineHorizon: 700_000, DeadlineSpan: 700_000, DeadlineSlack: true,
		UseCylinder: true, R: 3, Cylinders: 3832,
	}, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	var mu sync.Mutex
	var worker atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		// Each worker owns a disjoint ID range. Requests are pre-built (a
		// producer would hand over existing requests); all producers
		// observe the same head position, as they would between two
		// dispatches of the single arm.
		base := worker.Add(1) << 32
		ring := make([]core.Request, 1024)
		for j := range ring {
			ring[j] = core.Request{
				ID: base | uint64(j), Priorities: []int{j % 8, (j * 3) % 8, (j * 5) % 8},
				Deadline: int64(500_000 + j%4096), Cylinder: (j * 37) % 3832,
			}
		}
		i := 0
		for pb.Next() {
			mu.Lock()
			s.Add(&ring[i&1023], int64(i), 1200)
			mu.Unlock()
			i++
		}
	})
}

// BenchmarkSimulatorThroughput is the headline single-worker number: one
// recycled engine + scheduler replaying an arena-generated trace. The
// requests/s metric is per core; BenchmarkSweepAggregateThroughput
// measures the parallel aggregate.
func BenchmarkSimulatorThroughput(b *testing.B) {
	m := disk.MustModel(disk.QuantumXP32150Params())
	var arena workload.Arena
	trace := workload.Must(workload.Open{
		Seed: 1, Count: 2000, MeanInterarrival: 10_000,
		Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
		Cylinders: m.Cylinders, Size: 64 << 10,
	}.GenerateArena(&arena))
	var ru sim.Reuse
	cscan := sched.NewCSCAN()
	cfg := sim.Config{
		Disk: m, Scheduler: cscan, Reuse: &ru,
		Options: sim.Options{DropLate: true, Seed: 1},
	}
	sim.MustRun(cfg, trace) // warm the reused state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sim.MustRun(cfg, trace); res.Arrived != 2000 {
			b.Fatal("lost requests")
		}
	}
	b.ReportMetric(float64(2000*b.N)/b.Elapsed().Seconds(), "requests/s")
}

// BenchmarkSweepAggregateThroughput drives a whole sweep grid — one cell
// per (seed, scheduler), each on its own arena + recycled engine — through
// the parallel runner and reports aggregate simulated requests/s across
// all workers. On a multi-core box this is the 10M+ req/s configuration;
// on a single core it degenerates to the per-core number.
func BenchmarkSweepAggregateThroughput(b *testing.B) {
	m := disk.MustModel(disk.QuantumXP32150Params())
	const cells = 16
	const count = 2000
	type cellState struct {
		ru    sim.Reuse
		trace []*core.Request
	}
	states := make([]*cellState, cells)
	for i := range states {
		var arena workload.Arena
		states[i] = &cellState{trace: workload.Must(workload.Open{
			Seed: uint64(i + 1), Count: count, MeanInterarrival: 10_000,
			Dims: 3, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
			Cylinders: m.Cylinders, Size: 64 << 10,
		}.GenerateArena(&arena))}
	}
	runCell := func(i int) (uint64, error) {
		st := states[i]
		res, err := sim.Run(sim.Config{
			Disk: m, Scheduler: sched.NewCSCAN(), Reuse: &st.ru,
			Options: sim.Options{DropLate: true, Seed: uint64(i + 1)},
		}, st.trace)
		if err != nil {
			return 0, err
		}
		return res.Arrived, nil
	}
	if _, err := runner.Map(0, cells, runCell); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrived, err := runner.Map(0, cells, runCell)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range arrived {
			if a != count {
				b.Fatal("lost requests")
			}
		}
	}
	b.ReportMetric(float64(cells*count*b.N)/b.Elapsed().Seconds(), "requests/s")
	b.ReportMetric(float64(runner.Workers(0)), "workers")
}

// --- Ablation benches: the design choices DESIGN.md calls out ---

// BenchmarkAblationDeadlineMode compares the absolute-deadline axis
// (default) against the slack-at-enqueue ablation: the slack skew costs
// deadline misses at equal load.
func BenchmarkAblationDeadlineMode(b *testing.B) {
	trace := workload.Must(workload.Open{
		Seed: 1, Count: 4000, MeanInterarrival: 25_000,
		Dims: 1, Levels: 8, DeadlineMin: 500_000, DeadlineMax: 700_000,
	}.Generate())
	run := func(slack bool) float64 {
		s := core.MustScheduler("x", core.EncapsulatorConfig{
			Levels: 8, UseDeadline: true, F: math.Inf(1), Tie: core.TiePriority,
			DeadlineHorizon: 210_000_000, DeadlineSpan: 700_000, DeadlineSlack: slack,
		}, core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
		res := sim.MustRun(sim.Config{Scheduler: s, FixedService: 24_000, Options: sim.Options{DropLate: true, Seed: 1}}, trace)
		return float64(res.TotalMisses())
	}
	var abs, slack float64
	for i := 0; i < b.N; i++ {
		abs = run(false)
		slack = run(true)
	}
	b.ReportMetric(abs, "misses-absolute")
	b.ReportMetric(slack, "misses-slack")
}

// BenchmarkAblationSP measures the Serve-and-Promote policy's effect on
// priority inversion at a fixed window.
func BenchmarkAblationSP(b *testing.B) {
	trace := workload.Must(workload.Open{
		Seed: 1, Count: 4000, MeanInterarrival: 25_000,
		Dims: 4, Levels: 16,
	}.Generate())
	run := func(sp bool) float64 {
		s := core.MustScheduler("x", core.EncapsulatorConfig{
			Curve1: sfc.MustNew("peano", 4, 16), Levels: 16,
		}, core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: sp}, 0.05)
		res := sim.MustRun(sim.Config{
			Scheduler: s, FixedService: 24_000,
			Options: sim.Options{Dims: 4, Levels: 16, Seed: 1},
		}, trace)
		return float64(res.TotalInversions())
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(with, "inversions-sp")
	b.ReportMetric(without, "inversions-nosp")
}

// BenchmarkAblationER measures Expand-and-Reset's worst-case waiting time
// under an adversarial high-priority stream.
func BenchmarkAblationER(b *testing.B) {
	run := func(er bool) float64 {
		d := core.MustDispatcher(core.DispatcherConfig{
			Mode: core.ConditionallyPreemptive, Window: 5, ER: er, Expansion: 2,
		})
		d.Add(&core.Request{ID: 1}, 100_000)
		d.Next()
		d.Add(&core.Request{ID: 999}, 200_000)
		v := uint64(100_000)
		for i := 0; i < 512; i++ {
			v -= 6
			d.Add(&core.Request{ID: uint64(i + 2)}, v)
			if r := d.Next(); r != nil && r.ID == 999 {
				return float64(i)
			}
		}
		return 512
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(with, "victim-wait-er")
	b.ReportMetric(without, "victim-wait-noer")
}

// BenchmarkAblationWindow sweeps the blocking window and reports the
// preemption count at each size — the responsiveness/batching dial.
func BenchmarkAblationWindow(b *testing.B) {
	trace := workload.Must(workload.Open{
		Seed: 1, Count: 3000, MeanInterarrival: 25_000,
		Dims: 4, Levels: 16,
	}.Generate())
	run := func(frac float64) float64 {
		s := core.MustScheduler("x", core.EncapsulatorConfig{
			Curve1: sfc.MustNew("peano", 4, 16), Levels: 16,
		}, core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, frac)
		sim.MustRun(sim.Config{
			Scheduler: s, FixedService: 24_000,
			Options: sim.Options{Dims: 4, Levels: 16, Seed: 1},
		}, trace)
		st := s.Dispatcher().Stats()
		return float64(st.Preemptions + st.Promotions)
	}
	var w0, w5, w50 float64
	for i := 0; i < b.N; i++ {
		w0 = run(0)
		w5 = run(0.05)
		w50 = run(0.5)
	}
	b.ReportMetric(w0, "preempts-w0")
	b.ReportMetric(w5, "preempts-w5pct")
	b.ReportMetric(w50, "preempts-w50pct")
}

// BenchmarkAblationCurve1 compares SFC1 curve choices on total priority
// inversion under identical load — the Fig. 5 result as a single number.
func BenchmarkAblationCurve1(b *testing.B) {
	trace := workload.Must(workload.Open{
		Seed: 1, Count: 3000, MeanInterarrival: 25_000,
		Dims: 4, Levels: 16,
	}.Generate())
	run := func(curve string) float64 {
		s := core.MustScheduler("x", core.EncapsulatorConfig{
			Curve1: sfc.MustNew(curve, 4, 16), Levels: 16,
		}, core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.02)
		res := sim.MustRun(sim.Config{
			Scheduler: s, FixedService: 24_000,
			Options: sim.Options{Dims: 4, Levels: 16, Seed: 1},
		}, trace)
		return float64(res.TotalInversions())
	}
	var peano, hilbert float64
	for i := 0; i < b.N; i++ {
		peano = run("peano")
		hilbert = run("hilbert")
	}
	b.ReportMetric(peano, "inversions-peano")
	b.ReportMetric(hilbert, "inversions-hilbert")
}
