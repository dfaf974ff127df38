package sched

import (
	"strings"
	"testing"

	"sfcsched/internal/disk"
)

// testParams configures every registry policy over the Table 1 disk.
func testParams() Params {
	return Params{
		Disk: disk.MustModel(disk.QuantumXP32150Params()), Levels: 8, Dims: 2,
		Horizon: 700_000, Curve: "hilbert", F: 1, R: 3, Window: 0.02,
	}
}

func TestRegistryNew(t *testing.T) {
	with := func(edit func(*Params)) Params {
		p := testParams()
		edit(&p)
		return p
	}
	noDisk := func(p *Params) { p.Disk = nil }
	type tc struct {
		name    string
		p       Params
		wantErr string // "" = must build, with Name() == name
	}
	cases := []tc{
		{"elevator", testParams(), "unknown scheduler"},
		{"kamel-ddmp", testParams(), "unknown scheduler"},
		{"fd-scan", with(noDisk), "disk model"},
		{"scan-rt", with(noDisk), "disk model"},
		{"kamel", with(noDisk), "disk model"},
		{"cascaded", with(noDisk), "disk model"},
		{"cascaded", with(func(p *Params) { p.Disk, p.R = nil, 0 }), ""},
		{"multi-queue", with(func(p *Params) { p.Levels = 0 }), "level"},
		{"cascaded", with(func(p *Params) { p.Levels = 0 }), "level"},
		{"cascaded", with(func(p *Params) { p.Curve = "no-such-curve" }), "unknown curve"},
		{"scan-edf", Params{}, ""},
	}
	for _, name := range Names() {
		cases = append(cases, tc{name, testParams(), ""})
	}
	if len(Names()) != 14 {
		t.Errorf("Names() lists %d policies, want 14", len(Names()))
	}
	for _, c := range cases {
		s, err := New(c.name, c.p)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("New(%q): %v", c.name, err)
		case c.wantErr == "" && s.Name() != c.name:
			t.Errorf("New(%q).Name() = %q", c.name, s.Name())
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("New(%q) error = %v, want one mentioning %q", c.name, err, c.wantErr)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew of an unknown name did not panic")
		}
	}()
	MustNew("elevator", Params{})
}
