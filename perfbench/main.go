// Command perfbench is the repository's end-to-end benchmark. It drives
// the scheduling stack only through its public entry points — workload
// generation, sim.Run over runner.Map, cluster.Run and the live
// serve.Dispatcher — on one of three named workloads, checks the outputs,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run repeats the workload with timing decorators around the layers'
// interfaces and prints the per-layer metrics instead. README.md beside
// this file explains the workloads and the metrics.
//
// Usage:
//
//	go run . -workload sweep-deep -seed 1 -seconds 10 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run measured and what it checked.
type report struct {
	// attempted and failed count checked operations: simulation cells
	// on the simulator workloads, submissions on serve-closed.
	attempted int64
	failed    int64
	// problems lists every failed check, printed to standard error.
	problems []string
	names    []string
	metrics  map[string]metric
	// info holds human-readable context lines (digests, sample counts,
	// metrics outside the JSON set).
	info []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

// set records a metric, replacing an earlier value of the same name.
func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note adds a context line to the human-readable output.
func (r *report) note(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// fail records a failed check without counting an operation; use it for
// run-level checks such as digest agreement.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// op counts one checked operation and records its failure, if any.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to a size that runs in well under a
	// second, for the package's own tests.
	tiny bool
}

// benchWorkload is one named benchmark workload.
type benchWorkload struct {
	name string
	why  string
	run  func(opt options, rep *report) error
}

var workloads = []benchWorkload{
	{"sweep-deep", "single-disk sim.Run cells for all 14 policies over an overloaded 3-dimension trace via runner.Map: deep queues, walk- and Next-bound", runSweep},
	{"cluster-mixed", "cluster.Run over 4 nodes x 2 disks with the mixed scenario, token-bucket admission, least-loaded routing and SCAN-EDF: shallow queues", runCluster},
	{"serve-closed", "live serve.Dispatcher over core.ShardedScheduler fed by 2 closed-loop producers with bounded read-ahead", runServe},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func main() {
	opt, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if err := run(opt, out); err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// parseOptions reads the flags, in the "-name value" or "--name value"
// form.
func parseOptions(args []string, errOut io.Writer) (options, error) {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&opt.workload, "workload", "", "workload: sweep-deep, cluster-mixed or serve-closed")
	fs.Uint64Var(&opt.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.Float64Var(&opt.seconds, "seconds", 10, "measured wall time of the run, seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if fs.NArg() > 0 {
		return opt, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := findWorkload(opt.workload); !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return opt, fmt.Errorf("unknown -workload %q (have %s)", opt.workload, strings.Join(names, ", "))
	}
	if !(opt.seconds > 0) || opt.seconds > 600 {
		return opt, fmt.Errorf("-seconds must be in (0, 600], got %v", opt.seconds)
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	opt.trace = trace == 1
	return opt, nil
}

// run executes one workload and prints its report.
func run(opt options, out io.Writer) error {
	w, _ := findWorkload(opt.workload)
	rep := newReport()
	fmt.Fprintf(out, "machine: %s\n", machine())
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v\n", w.name, opt.seed, opt.seconds, opt.trace)
	if err := w.run(opt, rep); err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	for _, line := range rep.info {
		fmt.Fprintln(out, line)
	}
	for _, name := range rep.names {
		m := rep.metrics[name]
		fmt.Fprintf(out, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	errPct := 0.0
	if rep.attempted > 0 {
		errPct = 100 * float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(out, "%-32s %14.6g %s (%d of %d operations)\n", "error_pct", errPct, "%", rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	for name, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0 && len(rep.problems) == 0 && rep.attempted > 0, rep.attempted, rep.failed, rep.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// machine describes the host every result was measured on.
func machine() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the CPU model name on Linux; elsewhere it is unknown.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
