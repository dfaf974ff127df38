package sched

import (
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/stats"
)

// FuzzDeadlineSchedulersMatchLegacy holds the five deadline-aware policies
// to their pre-selection implementations in legacy_test.go: both sides see
// the same random interleaving of Add and Next and must return the same
// request pointer from every Next. Deadlines mix "none" (0), already
// expired, tight, quantized (so many tie exactly) and loose, with kinds
// masking which of the five occur; cylinders often repeat so seek scores
// tie too. The window runs from 1 to past the queue depth and Kamel's
// eviction cap from 0 to 9, so both the cap and the fully-feasible exit
// are exercised. Besides the disk model, a zero and a constant estimator
// put feasibility exactly on the deadline.
func FuzzDeadlineSchedulersMatchLegacy(f *testing.F) {
	// seed, operations, window, max evictions, add bias (queue depth),
	// deadline kinds (bit k enables kind k; 0 enables all), estimator
	f.Add(uint64(1), uint16(300), byte(4), byte(8), byte(20), byte(0), byte(0))
	f.Add(uint64(2), uint16(400), byte(40), byte(0), byte(5), byte(0), byte(0))
	f.Add(uint64(3), uint16(350), byte(0), byte(1), byte(45), byte(0b11110), byte(0))
	f.Add(uint64(4), uint16(200), byte(63), byte(3), byte(0), byte(0b01010), byte(0))
	f.Add(uint64(5), uint16(500), byte(9), byte(9), byte(49), byte(0b00110), byte(1))
	f.Add(uint64(6), uint16(450), byte(5), byte(2), byte(30), byte(0b01100), byte(2))
	f.Add(uint64(7), uint16(500), byte(5), byte(8), byte(45), byte(0b01000), byte(0))
	f.Add(uint64(8), uint16(400), byte(2), byte(4), byte(25), byte(0b00100), byte(1))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, windowB, evB, biasB, kinds, estB byte) {
		est := []Estimator{testEstimator(),
			func(int, int, int64) int64 { return 0 },
			func(int, int, int64) int64 { return 10_000 },
		}[int(estB)%3]
		if kinds&0b11111 == 0 {
			kinds = 0b11111
		}
		window := 1 + int(windowB)%64
		maxEv := int(evB) % 10
		kamel := NewKamel(est)
		kamel.MaxEvictions = maxEv
		cur := []Scheduler{NewSSEDO(window, 1.5), NewSSEDV(window, 0.8),
			NewFDSCAN(est), NewSCANRT(est), kamel}
		old := []Scheduler{legacySSEDO{NewSSEDO(window, 1.5)}, legacySSEDV{NewSSEDV(window, 0.8)},
			legacyFDSCAN{NewFDSCAN(est)}, &legacySCANRT{est: est},
			&legacyKamel{est: est, MaxEvictions: maxEv, Priority: priorityOf}}

		rng := stats.NewRNG(seed)
		addPct := 40 + int(biasB)%50
		heads := make([]int, len(cur))
		now := int64(0)
		deadline := func() int64 {
			kind := rng.Intn(5)
			for kinds&(1<<kind) == 0 {
				kind = (kind + 1) % 5
			}
			switch kind {
			case 0:
				return 0
			case 1: // already expired
				return max(1, now-int64(rng.Intn(50_000)))
			case 2: // tight: a service time or two away, on the clock's grid
				return now + 5_000*int64(rng.Intn(8))
			case 3: // quantized, so deadlines tie
				return (now/100_000 + 1 + int64(rng.Intn(3))) * 100_000
			default:
				return now + 100_000 + int64(rng.Intn(400_000))
			}
		}
		step := func(op int) {
			if rng.Intn(100) < addPct {
				cyl := rng.Intn(3832)
				if rng.Intn(2) == 0 {
					cyl = 479 * rng.Intn(8)
				}
				r := &core.Request{ID: uint64(op), Cylinder: cyl, Deadline: deadline(),
					Size: int64(4<<10) << rng.Intn(6), Priorities: []int{rng.Intn(8)}}
				for i := range cur {
					cur[i].Add(r, now, heads[i])
					old[i].Add(r, now, heads[i])
				}
				return
			}
			for i := range cur {
				got, want := cur[i].Next(now, heads[i]), old[i].Next(now, heads[i])
				if got != want {
					t.Fatalf("%s op %d: Next = %v, legacy %v", cur[i].Name(), op, got, want)
				}
				if got != nil {
					heads[i] = got.Cylinder
				}
			}
		}
		// The clock moves on a 5 ms grid, so it often lands exactly on
		// tight and quantized deadlines.
		ops := 50 + int(n)%500
		for op := 0; op < ops; op++ {
			step(op)
			now += 5_000 * int64(rng.Intn(5))
		}
		for i := range cur {
			if cur[i].Len() != old[i].Len() {
				t.Fatalf("%s: Len = %d, legacy %d", cur[i].Name(), cur[i].Len(), old[i].Len())
			}
		}
		addPct = 0 // drain
		for op := ops; op < 2*ops; op++ {
			step(op)
			now += 5_000 * int64(rng.Intn(5))
		}
		for i := range cur {
			if cur[i].Len() != 0 || old[i].Len() != 0 {
				t.Fatalf("%s: %d left after the drain, legacy %d", cur[i].Name(), cur[i].Len(), old[i].Len())
			}
		}
	})
}
