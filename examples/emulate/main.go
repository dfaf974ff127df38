// Emulate: the paper's §4.2 generalization claim. With the right stage
// configuration and a zero window, Cascaded-SFC reproduces classic
// schedulers exactly. This example configures three emulations — EDF,
// multi-queue priority, and C-SCAN — runs each against its reference
// implementation on the same trace, and verifies the dispatch orders match
// request for request.
package main

import (
	"fmt"
	"math"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sched"
	"sfcsched/internal/sfc"
	"sfcsched/internal/workload"
)

func main() {
	model := disk.MustModel(disk.QuantumXP32150Params())
	trace := workload.Must(workload.Open{
		Seed:             5,
		Count:            300,
		MeanInterarrival: 1_000,
		Dims:             1,
		Levels:           8,
		DeadlineMin:      500_000,
		DeadlineMax:      900_000,
		Cylinders:        model.Cylinders,
		Size:             64 << 10,
	}.Generate())
	horizon := int64(2_000_000)

	// EDF: stage 1 ignored (single value), stage 2 with f -> infinity
	// orders purely by deadline, stage 3 skipped.
	edfEmu := core.MustScheduler("emulated-edf",
		core.EncapsulatorConfig{
			Levels:          1, // collapse priorities: deadline decides
			UseDeadline:     true,
			F:               math.Inf(1),
			DeadlineHorizon: horizon,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	check("EDF", trace, edfEmu, sched.NewEDF())

	// Multi-queue: a 2-D sweep with priority on the major axis serves the
	// highest priority level first; deadline breaks ties inside a level
	// (the reference multi-queue uses scan order inside a level, so the
	// emulation compares level sequences rather than exact IDs).
	mqEmu := core.MustScheduler("emulated-multiqueue",
		core.EncapsulatorConfig{
			Levels:            8,
			UseDeadline:       true,
			Curve2:            sfc.MustNew("sweep", 2, 8),
			Curve2PriorityOnY: true,
			DeadlineHorizon:   horizon,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	checkLevels("multi-queue", trace, mqEmu, sched.NewMultiQueue(8))

	// C-SCAN: stages 1-2 ignored, stage 3 with R = 1 is one pure scan.
	cscanEmu := core.MustScheduler("emulated-cscan",
		core.EncapsulatorConfig{
			Levels:      1,
			UseCylinder: true,
			R:           1,
			Cylinders:   model.Cylinders,
		},
		core.DispatcherConfig{Mode: core.FullyPreemptive}, 0)
	check("C-SCAN", trace, cscanEmu, sched.NewCSCAN())
}

// drainAll enqueues the whole trace, then drains, returning dispatch IDs.
func drainAll(trace []*core.Request, s sched.Scheduler) []uint64 {
	head := 0
	for _, r := range trace {
		s.Add(r, r.Arrival, head)
	}
	now := trace[len(trace)-1].Arrival
	var ids []uint64
	for r := s.Next(now, head); r != nil; r = s.Next(now, head) {
		ids = append(ids, r.ID)
		head = r.Cylinder
	}
	return ids
}

func check(name string, trace []*core.Request, emu, ref sched.Scheduler) {
	a := drainAll(trace, emu)
	b := drainAll(trace, ref)
	mismatches := 0
	for i := range a {
		if a[i] != b[i] {
			mismatches++
		}
	}
	verdict := "exact match"
	if mismatches > 0 {
		verdict = fmt.Sprintf("%d/%d positions differ (tie-break order)", mismatches, len(a))
	}
	fmt.Printf("%-12s emulation vs reference: %s\n", name, verdict)
}

// checkLevels compares the sequence of priority levels dispatched, which
// is the multi-queue invariant (inside a level the two implementations
// break ties differently by design).
func checkLevels(name string, trace []*core.Request, emu, ref sched.Scheduler) {
	byID := map[uint64]int{}
	for _, r := range trace {
		byID[r.ID] = r.Priorities[0]
	}
	a := drainAll(trace, emu)
	b := drainAll(trace, ref)
	mismatches := 0
	for i := range a {
		if byID[a[i]] != byID[b[i]] {
			mismatches++
		}
	}
	verdict := "level sequence matches exactly"
	if mismatches > 0 {
		verdict = fmt.Sprintf("%d/%d level positions differ", mismatches, len(a))
	}
	fmt.Printf("%-12s emulation vs reference: %s\n", name, verdict)
}
