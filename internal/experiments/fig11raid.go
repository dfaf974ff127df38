package experiments

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/metrics"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// Fig11RAID is the §6 experiment on the full PanaViss storage stack: the
// 4-data + 1-parity RAID-5 array of Table 1 with true 1.5 Mbps MPEG-1
// streams. Logical blocks stripe across the array, recording streams pay
// the read-modify-write penalty, and each disk runs its own scheduler
// instance. Unlike Fig11 (single disk, scaled bit rate), no workload
// substitution is needed: 68-91 users at 1.5 Mbps span the array's
// capacity band naturally.
func Fig11RAID(cfg Fig11Config) (*Result, error) {
	if len(cfg.Users) == 0 {
		cfg.Users = DefaultFig11Config().Users
	}
	model, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return nil, err
	}
	array, err := disk.NewRAID5(5, cfg.BlockSize, model)
	if err != nil {
		return nil, err
	}
	names := fig11Names
	weights := metrics.LinearWeights(cfg.Levels, cfg.CostRatio)

	xs := make([]float64, len(cfg.Users))
	for i, u := range cfg.Users {
		xs[i] = float64(u)
	}
	res := &Result{
		ID:     "fig11raid",
		Title:  "Aggregate weighted losses vs users on the RAID-5 array (true 1.5 Mbps)",
		XLabel: "users",
		YLabel: fmt.Sprintf("weighted loss cost (top:bottom weight %g:1)", cfg.CostRatio),
		X:      xs,
		Notes: []string{
			fmt.Sprintf("array: %d disks RAID-5, block %d KB; bitrate=1500kbps levels=%d deadlines=[%d,%d]ms writes=%.0f%% duration=%ds",
				array.Disks, cfg.BlockSize>>10, cfg.Levels,
				cfg.DeadlineMin/1000, cfg.DeadlineMax/1000, cfg.WriteFrac*100, cfg.Duration/1_000_000),
			"logical writes pay the read-modify-write penalty (4 physical ops on 2 disks)",
		},
	}
	blockSpace := int(array.MaxBlocks() / 4)
	// Traces are generated up front (into per-point arenas kept alive
	// below), then shared read-only by every cell of their sweep point.
	arenas := make([]workload.Arena, len(cfg.Users))
	traces := make([][]*core.Request, len(cfg.Users))
	for i, users := range cfg.Users {
		traces[i], err = workload.Streams{
			Seed:        cfg.Seed,
			Users:       users,
			Duration:    cfg.Duration,
			BitRate:     1_500_000, // the paper's MPEG-1 rate, unscaled
			BlockSize:   cfg.BlockSize,
			Levels:      cfg.Levels,
			DeadlineMin: cfg.DeadlineMin,
			DeadlineMax: cfg.DeadlineMax,
			Cylinders:   blockSpace, // logical block address space
			WriteFrac:   cfg.WriteFrac,
			Burst:       3,
		}.GenerateArena(&arenas[i])
		if err != nil {
			return nil, err
		}
	}
	// One cell per (users, scheduler), users-major like the sequential
	// loop this replaces.
	nAlg := len(names)
	costs, err := runner.Map(cfg.Workers, len(cfg.Users)*nAlg, func(i int) (float64, error) {
		name := names[i%nAlg]
		ar, err := sim.RunArray(sim.ArrayConfig{
			Array: array,
			NewScheduler: func(int) (sched.Scheduler, error) {
				return newFig11Scheduler(name, cfg.Levels, cfg.DeadlineMax)
			},
			Options: sim.Options{DropLate: true, Dims: 1, Levels: cfg.Levels, Seed: cfg.Seed},
		}, traces[i/nAlg])
		if err != nil {
			return 0, err
		}
		return ar.Logical.WeightedLossCost(0, weights)
	})
	if err != nil {
		return nil, err
	}
	for j, name := range names {
		ys := make([]float64, len(cfg.Users))
		for u := range cfg.Users {
			ys[u] = costs[u*nAlg+j]
		}
		if err := res.AddSeries(name, ys); err != nil {
			return nil, err
		}
	}
	return res, nil
}
