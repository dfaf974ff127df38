package workload

import "fmt"

// Scenarios lists the built-in multi-client scenario names, in the order
// experiments sweep them.
func Scenarios() []string {
	return []string{"steady", "flash", "diurnal", "mixed"}
}

// ScenarioSpec builds one of the named multi-client scenarios, sized to
// about `requests` total requests against a disk of `cylinders` cylinders
// and seeded by seed. The scenarios stress exactly what single-stream
// Poisson cannot:
//
//   - steady: one Poisson cohort — the §5 baseline expressed as a Spec.
//   - flash: a steady Poisson background plus a bursty Gamma(0.5) cohort
//     whose rate jumps 8× inside a flash-crowd window.
//   - diurnal: one Poisson cohort stepped through peak/trough rate
//     windows (a compressed day).
//   - mixed: three cohorts against one disk — streaming playback
//     (Poisson, tight deadlines, class 0), interactive editing
//     (bursty Gamma(0.5), writes, class 1), and a batch scrub
//     (near-periodic Weibull(2), sequential walk over the upper half,
//     no deadlines, class 2).
//
// All scenarios use dims 2, levels 8, and carry tenant/class tags so the
// same specs drive single-disk, array, and cluster runs.
func ScenarioSpec(name string, seed uint64, requests, cylinders int) (Spec, error) {
	if requests < 4 {
		return Spec{}, fmt.Errorf("workload: scenario %q needs at least 4 requests, got %d", name, requests)
	}
	if cylinders < 4 {
		return Spec{}, fmt.Errorf("workload: scenario %q needs at least 4 cylinders, got %d", name, cylinders)
	}
	base := Client{
		MeanInterarrival: 25_000,
		Dims:             2,
		Levels:           8,
		DeadlineMin:      100_000,
		DeadlineMax:      400_000,
		Cylinders:        cylinders,
		Size:             64 << 10,
	}
	switch name {
	case "steady":
		c := base
		c.Name, c.Count = "steady", requests
		return Spec{Seed: seed, Clients: []Client{c}}, nil

	case "flash":
		bg := base
		bg.Name, bg.Count = "background", requests/2
		crowd := base
		crowd.Name, crowd.Count = "crowd", requests-requests/2
		crowd.Process, crowd.Shape = GammaArrivals, 0.5
		crowd.MeanInterarrival = 50_000
		// The crowd's offered load jumps 8× for a window in the middle of
		// the background's span.
		span := int64(requests/2) * bg.MeanInterarrival
		crowd.Windows = []Window{{From: span / 4, To: span / 2, Factor: 8}}
		return Spec{Seed: seed, Clients: []Client{bg, crowd}}, nil

	case "diurnal":
		c := base
		c.Name, c.Count = "diurnal", requests
		span := int64(requests) * c.MeanInterarrival
		// A compressed day: night trough, morning ramp, midday peak,
		// evening shoulder; outside the windows the base rate holds.
		c.Windows = []Window{
			{From: 0, To: span / 5, Factor: 0.5},
			{From: span / 5, To: 2 * span / 5, Factor: 1.5},
			{From: 2 * span / 5, To: 3 * span / 5, Factor: 3},
			{From: 3 * span / 5, To: 4 * span / 5, Factor: 1.5},
		}
		return Spec{Seed: seed, Clients: []Client{c}}, nil

	case "mixed":
		stream := base
		stream.Name, stream.Count = "stream", requests/2
		stream.DeadlineMin, stream.DeadlineMax = 75_000, 150_000
		stream.ZoneLo, stream.ZoneHi = 0, cylinders/2

		edit := base
		edit.Name, edit.Count = "edit", requests/4
		edit.Process, edit.Shape = GammaArrivals, 0.5
		edit.MeanInterarrival = 50_000
		edit.Burst = 4
		edit.WriteFrac = 0.5
		edit.Tenant, edit.Class = 1, 1
		edit.ZoneLo, edit.ZoneHi = 0, cylinders/2

		scrub := base
		scrub.Name, scrub.Count = "scrub", requests-requests/2-requests/4
		scrub.Process, scrub.Shape = WeibullArrivals, 2
		scrub.MeanInterarrival = 40_000
		scrub.DeadlineMin, scrub.DeadlineMax = 0, 0
		scrub.Sequential = true
		scrub.ZoneLo, scrub.ZoneHi = cylinders/2, cylinders
		scrub.Tenant, scrub.Class = 2, 2

		return Spec{Seed: seed, Clients: []Client{stream, edit, scrub}}, nil
	}
	return Spec{}, fmt.Errorf("workload: unknown scenario %q (have %v)", name, Scenarios())
}
