package sched

import (
	"fmt"

	"sfcsched/internal/core"
	"sfcsched/internal/disk"
	"sfcsched/internal/sfc"
)

// Params carries everything a named policy may need; each policy reads
// only its own fields. Horizon 0 disables the cascaded deadline stage and
// R 0 its seek stage.
type Params struct {
	Disk    *disk.Model // estimator of fd-scan, scan-rt and kamel; cylinders of the seek stage
	Levels  int         // priority levels per dimension
	Dims    int         // priority dimensions of the cascaded SFC1
	Horizon int64       // cascaded deadline horizon, µs
	Curve   string      // cascaded SFC1 curve (see sfc.Names)
	F       float64     // cascaded SFC2 balance factor
	R       int         // cascaded SFC3 partitions
	Window  float64     // cascaded blocking window, fraction of the value space
}

// Names returns the registry names of every policy, the cascaded
// scheduler first and then the 13 baselines.
func Names() []string {
	return []string{"cascaded", "fcfs", "sstf", "scan", "cscan", "edf", "scan-edf",
		"fd-scan", "scan-rt", "ssedo", "ssedv", "multi-queue", "bucket", "kamel"}
}

// New builds the named policy at its defaults: SCAN-EDF with a 50 ms
// quantum, SSEDO/SSEDV at (0, 0), the disk's ServiceTime as estimator, and
// cascaded conditionally preemptive with SP. Its Name() is name.
func New(name string, p Params) (Scheduler, error) {
	if p.Disk == nil && (name == "fd-scan" || name == "scan-rt" || name == "kamel") {
		return nil, fmt.Errorf("sched: %s needs a disk model for its service-time estimator", name)
	}
	switch name {
	case "cascaded":
		cfg, err := p.CascadedConfig()
		if err != nil {
			return nil, err
		}
		return core.NewScheduler("cascaded", cfg,
			core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true}, p.Window)
	case "fcfs":
		return NewFCFS(), nil
	case "sstf":
		return NewSSTF(), nil
	case "scan":
		return NewSCAN(), nil
	case "cscan":
		return NewCSCAN(), nil
	case "edf":
		return NewEDF(), nil
	case "scan-edf":
		return NewSCANEDF(50_000), nil
	case "fd-scan":
		return NewFDSCAN(p.Disk.ServiceTime), nil
	case "scan-rt":
		return NewSCANRT(p.Disk.ServiceTime), nil
	case "ssedo":
		return NewSSEDO(0, 0), nil
	case "ssedv":
		return NewSSEDV(0, 0), nil
	case "multi-queue":
		if p.Levels < 1 {
			return nil, fmt.Errorf("sched: multi-queue needs at least 1 level, got %d", p.Levels)
		}
		return NewMultiQueue(p.Levels), nil
	case "bucket":
		return NewBUCKET(), nil
	case "kamel":
		return NewKamel(p.Disk.ServiceTime), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q", name)
	}
}

// MustNew is New for static configurations; it panics on error.
func MustNew(name string, p Params) Scheduler {
	s, err := New(name, p)
	if err != nil {
		panic(err)
	}
	return s
}

// CascadedConfig is the encapsulator configuration of the cascaded
// policy, for callers that drive an encapsulator directly (schedsim
// -serve) and must schedule exactly as New("cascaded", p) does.
func (p Params) CascadedConfig() (core.EncapsulatorConfig, error) {
	if p.Levels < 1 {
		return core.EncapsulatorConfig{}, fmt.Errorf("sched: cascaded needs at least 1 level, got %d", p.Levels)
	}
	if p.R > 0 && p.Disk == nil {
		return core.EncapsulatorConfig{}, fmt.Errorf("sched: cascaded seek stage (R=%d) needs a disk model", p.R)
	}
	cv, err := sfc.New(p.Curve, p.Dims, uint32(p.Levels))
	if err != nil {
		return core.EncapsulatorConfig{}, err
	}
	cfg := core.EncapsulatorConfig{Curve1: cv, Levels: p.Levels}
	if p.Horizon > 0 {
		cfg.UseDeadline = true
		cfg.F = p.F
		cfg.DeadlineHorizon = p.Horizon
		cfg.DeadlineSpan = p.Horizon
		cfg.DeadlineSlack = true
	}
	if p.R > 0 {
		cfg.UseCylinder = true
		cfg.R = p.R
		cfg.Cylinders = p.Disk.Cylinders
	}
	return cfg, nil
}
