package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"time"
)

// median returns the median of vs (the mean of the middle pair for an
// even count), or 0 for none. vs is reordered.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// rank is the 1-based nearest rank ceil(q·n), clamped to [1, n].
func rank(q float64, n int) int {
	k := int(q*float64(n) + 0.999999999)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// hist is a linear histogram of nanosecond durations: bucket i counts
// values in [i·width, (i+1)·width); larger values land in the last bucket.
type hist struct {
	width  int64
	counts []uint32
	n      uint64
}

func newHist(width int64, buckets int) *hist {
	return &hist{width: width, counts: make([]uint32, buckets)}
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := ns / h.width
	if i >= int64(len(h.counts)) {
		i = int64(len(h.counts)) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the midpoint of the bucket holding the nearest-rank
// q-quantile, in nanoseconds.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	k := uint64(rank(q, int(h.n)))
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= k {
			return (float64(i) + 0.5) * float64(h.width)
		}
	}
	return float64(len(h.counts)) * float64(h.width)
}

// digest hashes simulated outcomes into one 64-bit value, so two runs can
// be compared for byte-identical results without keeping them.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) i64(vs ...int64) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// allocated returns the bytes the process has heap-allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// opStat accumulates the wall time and call count of one operation.
type opStat struct {
	ns    int64
	calls int64
}

func (s *opStat) since(t0 time.Time) {
	s.ns += int64(time.Since(t0))
	s.calls++
}

func (s *opStat) merge(o opStat) {
	s.ns += o.ns
	s.calls += o.calls
}

// mean returns the mean nanoseconds per call, or 0 without calls.
func (s opStat) mean() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// splitSeed derives the i-th independent seed from the workload seed
// (splitmix64), so each trace of a workload has its own stream.
func splitSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// timedSetup runs setup n times and returns the median wall time in
// seconds together with the last setup's result, which the run measures.
// Earlier results are released by the caller-supplied discard.
func timedSetup[T any](n int, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && discard != nil {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}
