package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"sfcsched/internal/core"
)

// traceDigest is the SHA-256 of a trace's WriteCSV bytes.
func traceDigest(t *testing.T, trace []*core.Request, dims int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trace, dims); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestTraceDigests pins the exact bytes every generator emits for the
// draw-path variants, the paper's stream mix, the built-in scenarios and
// a loaded replay. The digests were computed on the allocating
// generators, so any change to the draw order or to a request field shows
// up here even if the legacy oracles were edited along with it.
func TestTraceDigests(t *testing.T) {
	want := map[string]string{
		"open/0":  "077cf02f273600e8f4a831044f2383d585241442d10c27f90bc2797e95244bef",
		"open/1":  "6dd62cf3bf4e9b55772d0e11f9a790c812f82a77cbbad2cfd6ffc93be6270eed",
		"open/2":  "a624f33612221803e3e745a5bca35916abcaee6c5e8b0532ff6420d6fe1b8578",
		"open/3":  "a01a682d6530671ccc972c0ad29122bca2c8e7ef6de80a4bee0f7bfa655f8d18",
		"open/4":  "5d4bd5dbb6f66b2a6d7fe2f8c146db8d22864b7d5b4666689004930d5bc53ba4",
		"open/5":  "b83d1ec2d5e90aa3e840956c46f8abe108579424932e825459f830dc1ca501db",
		"streams": "d23d44c23affd2dc60eecb6c1f31074d781fa918cff8075ae051c532c46df89f",
		"spec/0":  "63b156c1e5cdd520b2452556992c9581399438b9a9ae2d64dea9151dd65b22b2",
		"spec/1":  "a73e766bfd2df0784313bc3660e3b0d5dc871e0de81225bc3b626797d67284e7",
		"spec/2":  "6892f1dee93fb7da6ea8a7bff9c05fad8e930d6c32b2d74c922ec07614aef671",
		"spec/3":  "1e68935b99e4e435e21a58c12fa8fb059790e6dec720c931f7d14c606520bb22",
		"spec/4":  "35c539697ceea2f12f7e720fa06e0a1608172992eb6fd734862ef84c854655f0",
		"steady":  "b058cee0a4ad8afbe63d46808cd50722b0870026df08087a9373ce7d2cde6406",
		"flash":   "c3594d47683655dca2124ddcc3870e5dea90033f744618c01376eaa9c99a9f78",
		"diurnal": "ce639164170540cdda39567bd8be92cde0ee5906d9dee78c0a4b5c003691cce6",
		"mixed":   "14f81f31178393b17c4e0028e3bdbae3d7e8695f919967f3a8433064a4e5f9a8",
		"replay":  "0919917d0df06eccdddfdd6f58f91ecc91173c541f9d9fcb9b6155584976659e",
	}
	got := map[string]string{}
	for i, w := range openVariants() {
		trace, err := w.Generate()
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("open/%d", i)] = traceDigest(t, trace, w.Dims)
	}
	trace, err := streamCfg().Generate()
	if err != nil {
		t.Fatal(err)
	}
	got["streams"] = traceDigest(t, trace, 1)
	for i, s := range specVariants() {
		trace, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("spec/%d", i)] = traceDigest(t, trace, s.Dims())
	}
	for _, name := range Scenarios() {
		s := Must(ScenarioSpec(name, 7, 2000, 4096))
		trace, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		got[name] = traceDigest(t, trace, s.Dims())
	}
	p, err := LoadReplay(strings.NewReader(replayJSONL))
	if err != nil {
		t.Fatal(err)
	}
	got["replay"] = traceDigest(t, p.Generate(), p.Dims())
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
}

// FuzzOpenMatchesLegacy holds Open's arena generator to the allocating
// body it replaced (legacy_test.go) across the whole configuration space:
// 0-4 dimensions, every level distribution, deadline spans including
// none and zero-width, size scaling, tenant tagging with skew, zones and
// classes, write fractions and value levels. Every request must be
// DeepEqual, and both must reject the same invalid configurations.
func FuzzOpenMatchesLegacy(f *testing.F) {
	// seed, count, dims, levels, dist, deadline min, deadline span, size
	// mode, tenants, skew (tenths), classes, zones, cylinders, write
	// fraction (/255), value levels
	f.Add(uint64(1), uint16(300), byte(3), byte(8), byte(0), uint32(100_000), uint32(200_000), byte(0), byte(0), byte(0), byte(0), false, uint16(3832), byte(70), byte(5))
	f.Add(uint64(2), uint16(200), byte(2), byte(8), byte(2), uint32(0), uint32(0), byte(1), byte(12), byte(12), byte(3), true, uint16(4096), byte(0), byte(0))
	f.Add(uint64(3), uint16(150), byte(4), byte(16), byte(1), uint32(50_000), uint32(0), byte(2), byte(5), byte(0), byte(2), false, uint16(0), byte(255), byte(1))
	f.Add(uint64(4), uint16(100), byte(0), byte(1), byte(0), uint32(0), uint32(1), byte(1), byte(7), byte(30), byte(0), true, uint16(7), byte(10), byte(0))
	f.Add(uint64(5), uint16(50), byte(1), byte(2), byte(2), uint32(10), uint32(5), byte(1), byte(9), byte(5), byte(9), true, uint16(0), byte(128), byte(3))
	f.Fuzz(func(t *testing.T, seed uint64, count uint16, dims, levels, dist byte, dlMin, dlSpan uint32,
		sizeMode, tenants, skew, classes byte, zones bool, cyl uint16, writeB, valueB byte) {
		w := Open{
			Seed:             seed,
			Count:            1 + int(count)%400,
			MeanInterarrival: 10_000,
			Dims:             int(dims) % 5,
			Levels:           1 + int(levels)%16,
			Dist:             PriorityDist(dist % 3),
			Cylinders:        int(cyl) % 5000,
			Size:             64 << 10,
			WriteFrac:        float64(writeB) / 255,
			ValueLevels:      int(valueB) % 9,
			Tenants:          int(tenants) % 16,
			TenantSkew:       float64(skew%40) / 10,
			Classes:          int(classes) % 5,
			TenantZones:      zones,
		}
		if dlSpan > 0 || dlMin > 0 {
			w.DeadlineMin = int64(dlMin % 1_000_000)
			w.DeadlineMax = w.DeadlineMin + int64(dlSpan%1_000_000)
		}
		switch sizeMode % 3 {
		case 1:
			w.SizeMin, w.SizeMax = 4<<10, 256<<10
		case 2:
			w.SizeMin, w.SizeMax = 8<<10, 8<<10
		}
		want, wantErr := legacyOpenGenerate(w)
		var a Arena
		got, err := w.GenerateArena(&a)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%+v: error %v, legacy error %v", w, err, wantErr)
		}
		if err != nil {
			return
		}
		sameTrace(t, fmt.Sprintf("%+v", w), want, got)
	})
}
