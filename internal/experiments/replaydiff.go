package experiments

import (
	"bytes"
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/runner"
	"sfcsched/internal/sched"
	"sfcsched/internal/sim"
	"sfcsched/internal/workload"
)

// ReplayDiffConfig drives the record→replay regression experiment: every
// multi-client scenario runs under every scheduler, its JSONL dispatch
// trace is recorded, loaded back through workload.LoadReplay and
// re-executed on a fresh scheduler, and the two recordings are compared
// byte for byte. A non-zero divergence is a determinism regression — the
// standing gate the CI cmp step holds between builds.
type ReplayDiffConfig struct {
	Seed uint64
	// Requests is the total request count per scenario.
	Requests int
	// Scenarios lists the multi-client scenarios to run (default: all of
	// workload.Scenarios()).
	Scenarios []string
	// Workers bounds the parallel sweep cells (0 = GOMAXPROCS). Results
	// are identical for every worker count; see internal/runner.
	Workers int
}

// DefaultReplayDiffConfig runs every built-in scenario at a load that
// produces both services and deadline drops.
func DefaultReplayDiffConfig() ReplayDiffConfig {
	return ReplayDiffConfig{Seed: 1, Requests: 3000, Scenarios: workload.Scenarios()}
}

// newReplayDiffScheduler builds a round-trip policy: cascaded is a 1-D
// deadline cascade at a 5% window, the baselines come from the registry.
func newReplayDiffScheduler(name string) (sched.Scheduler, error) {
	if name == "cascaded" {
		return core.NewScheduler("cascaded",
			core.EncapsulatorConfig{Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000},
			core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, 0.05)
	}
	return sched.New(name, sched.Params{})
}

// ReplayDiff runs the scenarios and reports two results over the scenario
// axis: per-scheduler deadline-drop rates (the workload diversity the
// scenarios exist to produce) and per-scheduler replay divergence, which
// must be 0 everywhere — a recorded run replayed on the same build is
// byte-identical. Deterministic: the same config renders the same CSV for
// any worker count.
func ReplayDiff(cfg ReplayDiffConfig) (*Result, *Result, error) {
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = workload.Scenarios()
	}
	model, err := disk.NewModel(disk.QuantumXP32150Params())
	if err != nil {
		return nil, nil, err
	}
	// The disciplines the round trip is checked under: the cascaded
	// scheduler (stateful SFC stages, the hardest case), the paper's
	// strongest baseline, and the naive baseline.
	names := []string{"cascaded", "scan-edf", "fcfs"}

	x := make([]float64, len(cfg.Scenarios))
	notes := []string{fmt.Sprintf("%d requests per scenario; scenario axis:", cfg.Requests)}
	for i, name := range cfg.Scenarios {
		x[i] = float64(i)
		notes = append(notes, fmt.Sprintf("  x=%d: %s", i, name))
	}
	drops := &Result{
		ID:     "replaydiff",
		Title:  "Deadline drops per multi-client scenario",
		XLabel: "scenario",
		YLabel: "dropped requests (%)",
		X:      x,
		Notes:  notes,
	}
	diverged := &Result{
		ID:     "replaydiff",
		Title:  "Record→replay divergence per scenario (must be 0)",
		XLabel: "scenario",
		YLabel: "diverging replays (0 = byte-identical)",
		X:      x,
	}

	type cellOut struct{ drop, diverge []float64 }
	cells, err := runner.Map(cfg.Workers, len(cfg.Scenarios), func(i int) (cellOut, error) {
		spec, err := workload.ScenarioSpec(cfg.Scenarios[i], cfg.Seed, cfg.Requests, model.Cylinders)
		if err != nil {
			return cellOut{}, err
		}
		var arena, replayArena workload.Arena
		trace, err := spec.GenerateArena(&arena)
		if err != nil {
			return cellOut{}, err
		}
		out := cellOut{drop: make([]float64, len(names)), diverge: make([]float64, len(names))}
		for j, name := range names {
			record := func(reqs []*core.Request, buf *bytes.Buffer) error {
				s, err := newReplayDiffScheduler(name)
				if err != nil {
					return err
				}
				return runReused(sim.Config{
					Disk: model, Scheduler: s,
					Options: sim.Options{
						DropLate: true, Dims: spec.Dims(), Levels: 8,
						Seed: cfg.Seed, Trace: sim.JSONLTrace(buf),
					},
				}, reqs, func(res *sim.Result) error {
					out.drop[j] = percent(float64(res.Dropped), float64(res.Served+res.Dropped))
					return nil
				})
			}
			var recA, recB bytes.Buffer
			if err := record(trace, &recA); err != nil {
				return cellOut{}, err
			}
			rec, err := workload.LoadReplay(bytes.NewReader(recA.Bytes()))
			if err != nil {
				return cellOut{}, err
			}
			if rec.Len() != len(trace) {
				return cellOut{}, fmt.Errorf("replaydiff: %s/%s: replay reconstructed %d of %d requests",
					cfg.Scenarios[i], name, rec.Len(), len(trace))
			}
			if err := record(rec.GenerateArena(&replayArena), &recB); err != nil {
				return cellOut{}, err
			}
			if !bytes.Equal(recA.Bytes(), recB.Bytes()) {
				out.diverge[j] = 1
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for j, name := range names {
		dy := make([]float64, len(cells))
		vy := make([]float64, len(cells))
		for i, c := range cells {
			dy[i] = c.drop[j]
			vy[i] = c.diverge[j]
		}
		if err := drops.AddSeries(name, dy); err != nil {
			return nil, nil, err
		}
		if err := diverged.AddSeries(name, vy); err != nil {
			return nil, nil, err
		}
	}
	return drops, diverged, nil
}
