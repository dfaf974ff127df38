package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the subset of the repository's BENCHMARK.json the test
// checks the command's output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestEveryMetricPrinted runs every workload at a tiny size, untraced and
// traced, and checks that the last line carries exactly the metrics
// BENCHMARK.json declares, each with its declared unit, and that the run
// passed its own checks.
func TestEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(bf.Workloads), len(workloads))
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			opt := options{workload: w.Name, seed: 7, seconds: 0.2, trace: traced, tiny: true}
			if _, ok := findWorkload(w.Name); !ok {
				t.Fatalf("workload %q in BENCHMARK.json is unknown to the command", w.Name)
			}
			var out bytes.Buffer
			if err := run(opt, &out); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := declared[traced]
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, unit)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s traced=%v: %s not printed by name", w.Name, traced, name)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not declared in BENCHMARK.json", w.Name, traced, name)
				}
			}
		}
	}
}

// TestSeedDeterminesSimulation checks that a simulator workload's digest
// depends on the seed and only on the seed.
func TestSeedDeterminesSimulation(t *testing.T) {
	digest := func(seed uint64) string {
		var out bytes.Buffer
		if err := run(options{workload: "cluster-mixed", seed: seed, seconds: 0.05, tiny: true}, &out); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "digest ") {
				return strings.Fields(line)[1]
			}
		}
		t.Fatal("no digest line")
		return ""
	}
	if a, b := digest(1), digest(1); a != b {
		t.Errorf("seed 1 gave digests %s and %s", a, b)
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same digest %s", a)
	}
}

func TestParseOptionsRejects(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-deep", "--trace", "2"},
		{"--workload", "sweep-deep", "--seconds", "0"},
		{"--workload", "sweep-deep", "extra"},
	} {
		if _, err := parseOptions(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
	opt, err := parseOptions([]string{"--workload", "serve-closed", "--seed", "9", "--seconds", "3", "--trace", "1"}, &bytes.Buffer{})
	if err != nil || opt.seed != 9 || opt.seconds != 3 || !opt.trace {
		t.Errorf("got %+v, %v", opt, err)
	}
}
