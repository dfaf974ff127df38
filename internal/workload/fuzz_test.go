package workload

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"sfcsched/internal/core"
)

// allocBytes returns the heap bytes allocated while f runs. Tests that
// call it must not run in parallel with other allocating tests.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// parseAllocBound is the most a parser may allocate for an input of n
// bytes: a fixed allowance for reader buffers plus a per-byte factor.
// encoding/csv alone keeps about 80 B of bookkeeping per field (a field
// can be two bytes), and a decoded request costs about 150 B against a
// shortest row of 14.
func parseAllocBound(n int) uint64 { return 256<<10 + 64*uint64(n) }

// ReadCSV sizes its slab chunks by the rows it has read, so a wide header
// over a single row allocates in proportion to the input. Chunks sized
// for 1024 rows up front would cost 1024·dims ints here: 32 MB for 4000
// columns.
func TestReadCSVAllocBoundedByInput(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are meaningless under -race")
	}
	for _, dims := range []int{1000, 4000} {
		var buf bytes.Buffer
		row := &core.Request{ID: 1, Arrival: 5, Priorities: make([]int, dims)}
		if err := WriteCSV(&buf, []*core.Request{row}, dims); err != nil {
			t.Fatal(err)
		}
		in := buf.Bytes()
		var err error
		got := allocBytes(func() { _, err = ReadCSV(bytes.NewReader(in)) })
		if err != nil {
			t.Fatal(err)
		}
		if limit := parseAllocBound(len(in)); got > limit {
			t.Errorf("dims %d: ReadCSV allocated %d B for a %d B input, want <= %d", dims, got, len(in), limit)
		}
	}
}

// csvSeeds are well-formed and malformed request CSVs for the parser
// fuzzers.
func csvSeeds(t testing.TB) []string {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, Must(openVariants()[0].Generate())[:20], 3); err != nil {
		t.Fatal(err)
	}
	return []string{
		buf.String(),
		"id,arrival_us,deadline_us,cylinder,size,write,value\n1,0,0,0,0,false,0\n",
		"id,arrival_us,deadline_us,cylinder,size,write,value,priority_0\n1,0,0,0,0,false,0\n",
		"id,arrival_us,deadline_us,cylinder,size,write,value,priority_0,priority_1\n2,5,9,1,4096,true,1,3,4\n1,5,0,7,4096,false,0,0,1\n2,5,9,1,4096,true,1,3,4\n",
		"id,arrival_us\n\"1\n",
		"",
	}
}

// FuzzReadCSV: malformed input returns an error, never a panic, and
// allocation stays within parseAllocBound of the input size. Whatever
// parses survives a WriteCSV round trip unchanged.
func FuzzReadCSV(f *testing.F) {
	for _, s := range csvSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var trace []*core.Request
		var err error
		got := allocBytes(func() { trace, err = ReadCSV(bytes.NewReader(in)) })
		if !raceEnabled && got > parseAllocBound(len(in)) {
			t.Fatalf("ReadCSV allocated %d B for a %d B input", got, len(in))
		}
		if err != nil {
			return
		}
		dims := 0
		if len(trace) > 0 {
			dims = len(trace[0].Priorities)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, trace, dims); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-reading written trace: %v", err)
		}
		sameTrace(t, "csv round trip", trace, back)
	})
}

// FuzzLoadReplay covers both sniff paths (JSONL dispatch traces and
// request CSVs): malformed input returns an error, never a panic, and
// allocation stays within parseAllocBound of the input size. A loaded
// replay is canonical: every request carries Dims priorities, and
// writing it as CSV and loading that back yields the same trace (minus
// tenant and class, which the CSV format does not carry).
func FuzzLoadReplay(f *testing.F) {
	for _, s := range csvSeeds(f) {
		f.Add([]byte(s))
	}
	f.Add([]byte(replayJSONL))
	f.Add([]byte(`{"id":1,"prio":[1]}` + "\n" + `{"id":2}` + "\n"))
	f.Add([]byte(`{"id":1,"prio":[1,2]}` + "\n" + `{"id":2,"prio":[3]}` + "\n"))
	f.Add([]byte(`{"id":1,"disk":1}` + "\n"))
	f.Add([]byte("\n \t{\"id\":3,\"arrival\":-4,\"cyl\":-1}\n{\"id\":3}\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		var p *Replay
		var err error
		got := allocBytes(func() { p, err = LoadReplay(bytes.NewReader(in)) })
		if !raceEnabled && got > parseAllocBound(len(in)) {
			t.Fatalf("LoadReplay allocated %d B for a %d B input", got, len(in))
		}
		if err != nil {
			return
		}
		trace := p.Generate()
		if len(trace) != p.Len() {
			t.Fatalf("Generate returned %d requests, Len %d", len(trace), p.Len())
		}
		for i, r := range trace {
			if len(r.Priorities) != p.Dims() {
				t.Fatalf("request %d has %d priorities, Dims %d", i, len(r.Priorities), p.Dims())
			}
			if i > 0 && (r.Arrival < trace[i-1].Arrival ||
				r.Arrival == trace[i-1].Arrival && r.ID <= trace[i-1].ID) {
				t.Fatalf("request %d out of canonical (arrival, ID) order", i)
			}
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, trace, p.Dims()); err != nil {
			t.Fatal(err)
		}
		back, err := LoadReplay(&buf)
		if err != nil {
			if len(trace) == 0 && strings.Contains(err.Error(), "empty") {
				return
			}
			t.Fatalf("reloading written trace: %v", err)
		}
		for _, r := range trace {
			r.Tenant, r.Class = 0, 0
		}
		sameTrace(t, "replay round trip", trace, back.Generate())
	})
}
