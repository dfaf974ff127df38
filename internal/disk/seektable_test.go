package disk

import (
	"math"
	"testing"
)

// powSeek is the power-curve expression SeekTime evaluated on every call
// before NewModel tabulated it.
func powSeek(m *Model, d int) int64 {
	if d == 0 {
		return 0
	}
	u := float64(d) / float64(m.Cylinders-1)
	return m.MinSeek + int64(float64(m.MaxSeek-m.MinSeek)*math.Pow(u, m.gamma))
}

// The seek table must reproduce both curves exactly, as int64, at every
// distance of the Table 1 disk; be symmetric in its arguments; and keep
// rejecting cylinders outside the disk on either side.
func TestSeekTableExact(t *testing.T) {
	pow := xp()
	sqrt := xp()
	s, err := NewSqrtSeekFromMax(sqrt.Cylinders, 1500, 18000)
	if err != nil {
		t.Fatal(err)
	}
	sqrt.UseSqrtSeek(s)
	for _, tc := range []struct {
		name  string
		m     *Model
		curve func(d int) int64
	}{
		{"power", pow, func(d int) int64 { return powSeek(pow, d) }},
		{"sqrt", sqrt, func(d int) int64 { return s.Time(0, d) }},
	} {
		if tc.m.Cylinders != 3832 {
			t.Fatalf("%s: %d cylinders, want Table 1's 3832", tc.name, tc.m.Cylinders)
		}
		for d := 0; d < tc.m.Cylinders; d++ {
			if got, want := tc.m.SeekTime(0, d), tc.curve(d); got != want {
				t.Fatalf("%s: SeekTime(0, %d) = %d, want %d", tc.name, d, got, want)
			}
		}
		for from := 0; from < tc.m.Cylinders; from += 13 {
			for to := 0; to < tc.m.Cylinders; to++ {
				if a, b := tc.m.SeekTime(from, to), tc.m.SeekTime(to, from); a != b {
					t.Fatalf("%s: SeekTime(%d, %d) = %d but SeekTime(%d, %d) = %d", tc.name, from, to, a, to, from, b)
				}
			}
		}
		for _, bad := range [][2]int{{-1, 0}, {0, -1}, {tc.m.Cylinders, 0}, {0, tc.m.Cylinders}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: SeekTime(%d, %d) did not panic", tc.name, bad[0], bad[1])
					}
				}()
				tc.m.SeekTime(bad[0], bad[1])
			}()
		}
	}
}

// UseSqrtSeek gives the model a table of its own: a copy of the model
// taken before the swap keeps the power curve.
func TestUseSqrtSeekLeavesCopiesAlone(t *testing.T) {
	m := xp()
	before := *m
	s, _ := NewSqrtSeekFromMax(m.Cylinders, 1500, 18000)
	m.UseSqrtSeek(s)
	if got, want := before.SeekTime(0, 1000), powSeek(&before, 1000); got != want {
		t.Errorf("copy's SeekTime(0, 1000) = %d after the swap, want %d", got, want)
	}
}

var seekSink int64

// BenchmarkSeekTime times one seek-time lookup over a spread of distances.
func BenchmarkSeekTime(b *testing.B) {
	m := xp()
	for i := 0; i < b.N; i++ {
		seekSink += m.SeekTime(i%m.Cylinders, (i*37)%m.Cylinders)
	}
}
