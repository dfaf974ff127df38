package experiments

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// DivergenceConfig drives the counterfactual-divergence experiment: the
// cascaded SFC scheduler serves a single disk while shadow schedulers ride
// the same arrival stream, and the offered load sweeps. The shadows answer
// the operational question behind the observability layer — how different
// would the dispatch sequence be under another policy, and how much head
// travel would it cost — without running separate simulations per policy.
type DivergenceConfig struct {
	Seed uint64
	// Interarrivals lists the mean arrival gaps to sweep, µs (the x-axis
	// renders as offered load in req/s).
	Interarrivals []int64
	// Requests is the request count per point.
	Requests int
	// Levels is the number of priority levels.
	Levels int
	// DeadlineMin/Max bound the relative deadlines, µs.
	DeadlineMin int64
	DeadlineMax int64
	// Workers bounds the parallel sweep cells (0 = GOMAXPROCS). Results
	// are identical for every worker count; see internal/runner.
	Workers int
}

// DefaultDivergenceConfig sweeps from a lightly loaded disk (queues mostly
// empty, policies agree trivially) into saturation (deep queues, policy
// choices diverge hard).
func DefaultDivergenceConfig() DivergenceConfig {
	return DivergenceConfig{
		Seed:          1,
		Interarrivals: []int64{24_000, 16_000, 12_000, 9_000, 7_000},
		Requests:      3000,
		Levels:        8,
		DeadlineMin:   300_000,
		DeadlineMax:   700_000,
	}
}

// divergenceShadows lists the counterfactual policies ridden against the
// cascaded primary: the paper's strongest baseline, the naive baseline,
// and the cascaded scheduler itself with a 4x wider blocking window (the
// knob §5.1 sweeps).
func divergenceShadows(levels int, horizon int64) (map[string]func() (sched.Scheduler, error), []string) {
	names := []string{"scan-edf", "fcfs", "cascaded-w20"}
	return map[string]func() (sched.Scheduler, error){
		"scan-edf":     func() (sched.Scheduler, error) { return sched.NewSCANEDF(50_000), nil },
		"fcfs":         func() (sched.Scheduler, error) { return sched.NewFCFS(), nil },
		"cascaded-w20": func() (sched.Scheduler, error) { return divergencePrimary(levels, horizon, 0.20) },
	}, names
}

// divergencePrimary builds the cascaded scheduler of the faultsweep
// experiment: hilbert over the (deadline, priority) plane, conditionally
// preemptive, blocking window windowFrac of the value space.
func divergencePrimary(levels int, horizon int64, windowFrac float64) (sched.Scheduler, error) {
	cv, err := sfc.New("hilbert", 2, uint32(levels))
	if err != nil {
		return nil, err
	}
	return core.NewScheduler("cascaded",
		core.EncapsulatorConfig{
			Levels:      levels,
			UseDeadline: true, Curve2: cv,
			DeadlineHorizon: horizon, DeadlineSlack: true,
		},
		core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, windowFrac)
}

// Divergence sweeps offered load and reports, per shadow policy, the
// choice-disagreement rate against the cascaded primary and the
// counterfactual head-travel delta. Deterministic: the same config renders
// the same CSV for any worker count.
func Divergence(cfg DivergenceConfig) (*Result, *Result, error) {
	if len(cfg.Interarrivals) == 0 {
		cfg.Interarrivals = DefaultDivergenceConfig().Interarrivals
	}
	model, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return nil, nil, err
	}
	shadows, names := divergenceShadows(cfg.Levels, cfg.DeadlineMax)

	x := make([]float64, len(cfg.Interarrivals))
	for i, ia := range cfg.Interarrivals {
		x[i] = float64(int64(1_000_000 / ia))
	}
	notes := []string{
		fmt.Sprintf("primary: cascaded hilbert (deadline, priority), window 5%%; %d requests per point, deadlines [%d,%d]ms",
			cfg.Requests, cfg.DeadlineMin/1000, cfg.DeadlineMax/1000),
		"shadows ride the primary's arrival stream and answer per-decision; they never perturb the run",
		"travel delta = 100*(shadow head travel - primary)/primary; negative means the shadow would seek less",
	}
	disagree := &Result{
		ID:     "divergence",
		Title:  "Shadow-scheduler choice disagreement vs offered load",
		XLabel: "load (req/s)",
		YLabel: "decisions disagreeing with the cascaded primary (%)",
		X:      x,
		Notes:  notes,
	}
	travel := &Result{
		ID:     "divergence",
		Title:  "Counterfactual head-travel delta vs offered load",
		XLabel: "load (req/s)",
		YLabel: "shadow head travel vs primary (%)",
		X:      x,
	}

	type cellOut struct{ disagree, travel []float64 }
	cells, err := runner.Map(cfg.Workers, len(cfg.Interarrivals), func(i int) (cellOut, error) {
		var arena workload.Arena
		trace, err := workload.Open{
			Seed:             cfg.Seed,
			Count:            cfg.Requests,
			MeanInterarrival: cfg.Interarrivals[i],
			Dims:             1,
			Levels:           cfg.Levels,
			DeadlineMin:      cfg.DeadlineMin,
			DeadlineMax:      cfg.DeadlineMax,
			Cylinders:        model.Cylinders,
			SizeMin:          4 << 10,
			SizeMax:          128 << 10,
		}.GenerateArena(&arena)
		if err != nil {
			return cellOut{}, err
		}
		primary, err := divergencePrimary(cfg.Levels, cfg.DeadlineMax, 0.05)
		if err != nil {
			return cellOut{}, err
		}
		shs := make([]*sim.Shadow, len(names))
		for j, name := range names {
			s, err := shadows[name]()
			if err != nil {
				return cellOut{}, err
			}
			shs[j] = sim.NewShadow(name, s)
		}
		out := cellOut{disagree: make([]float64, len(names)), travel: make([]float64, len(names))}
		err = runReused(sim.Config{
			Disk: model, Scheduler: primary,
			Options: sim.Options{
				DropLate: true, Dims: 1, Levels: cfg.Levels,
				Seed: cfg.Seed, Shadows: shs,
			},
		}, trace, func(res *sim.Result) error {
			for j, rep := range res.Shadows {
				out.disagree[j] = 100 * rep.DisagreementRate()
				out.travel[j] = percent(float64(rep.HeadTravel-res.HeadTravel), float64(res.HeadTravel))
			}
			return nil
		})
		return out, err
	})
	if err != nil {
		return nil, nil, err
	}
	for j, name := range names {
		dy := make([]float64, len(cells))
		ty := make([]float64, len(cells))
		for i, c := range cells {
			dy[i] = c.disagree[j]
			ty[i] = c.travel[j]
		}
		if err := disagree.AddSeries(name, dy); err != nil {
			return nil, nil, err
		}
		if err := travel.AddSeries(name, ty); err != nil {
			return nil, nil, err
		}
	}
	return disagree, travel, nil
}
