package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sfcsched/internal/core"
	"sfcsched/internal/sched"
	"sfcsched/internal/workload"
)

// decisionWorkload generates the standard small workload used by the
// decision-layer tests.
func decisionWorkload(seed uint64) []*core.Request {
	return workload.Must(workload.Open{
		Seed: seed, Count: 400, MeanInterarrival: 12_000,
		Dims: 2, Levels: 8, DeadlineMin: 100_000, DeadlineMax: 500_000,
		Cylinders: 3832, SizeMin: 4 << 10, SizeMax: 128 << 10,
	}.Generate())
}

func cascadedScheduler() sched.Scheduler {
	return core.MustScheduler("cascaded",
		core.EncapsulatorConfig{Levels: 8, UseDeadline: true, F: 1, DeadlineHorizon: 800_000},
		core.DispatcherConfig{Mode: core.ConditionallyPreemptive, SP: true},
		0.05)
}

func TestDecisionTraceCapturesDecisions(t *testing.T) {
	dt := NewDecisionTrace(10_000)
	dt.SetMetrics(&DecisionMetrics{})
	res := MustRun(Config{
		Disk: xp(), Scheduler: cascadedScheduler(),
		Options: Options{DropLate: true, Decisions: dt},
	}, decisionWorkload(1))

	if dt.Total() == 0 {
		t.Fatal("no decisions captured")
	}
	if got, want := dt.Total(), res.Served+res.Dropped; got != want {
		t.Errorf("decisions captured = %d, want served+dropped = %d", got, want)
	}
	sawWindow, sawMultiCandidate := false, false
	for i, rec := range dt.Records() {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has Seq %d, want dense sequence", i, rec.Seq)
		}
		if rec.Depth < 1 {
			t.Fatalf("record %d has depth %d; the chosen request is a candidate", i, rec.Depth)
		}
		if rec.Chosen.V == NoValue {
			t.Fatalf("record %d: cascaded scheduler is a ValueRanker, chosen V missing", i)
		}
		if rec.K != min(rec.Depth, MaxTopK) {
			t.Fatalf("record %d: K = %d with depth %d", i, rec.K, rec.Depth)
		}
		for k := 1; k < rec.K; k++ {
			if candByV(rec.TopK[k-1], rec.TopK[k]) > 0 {
				t.Fatalf("record %d: TopK not in (V, ID) rank order at %d", i, k)
			}
		}
		if rec.Deadlined > 0 {
			if rec.SlackP50 < rec.SlackMin || rec.SlackP50 > rec.SlackMax {
				t.Fatalf("record %d: slack p50 %d outside [%d, %d]",
					i, rec.SlackP50, rec.SlackMin, rec.SlackMax)
			}
		}
		if rec.Window != 0 {
			sawWindow = true
		}
		if rec.Depth > 1 {
			sawMultiCandidate = true
		}
	}
	if !sawWindow {
		t.Error("no record carried a blocking-window state from the cascaded dispatcher")
	}
	if !sawMultiCandidate {
		t.Error("no record had more than one candidate; workload too light to be meaningful")
	}
}

func TestDecisionTraceRingWrap(t *testing.T) {
	dt := NewDecisionTrace(16)
	dt.SetMetrics(&DecisionMetrics{})
	MustRun(Config{
		Disk: xp(), Scheduler: sched.NewCSCAN(),
		Options: Options{DropLate: true, Decisions: dt},
	}, decisionWorkload(2))

	if dt.Total() <= 16 {
		t.Fatalf("run produced only %d decisions; wrap not exercised", dt.Total())
	}
	if dt.Len() != 16 {
		t.Fatalf("ring holds %d records, want capacity 16", dt.Len())
	}
	recs := dt.Records()
	if want := dt.Total() - 1; recs[len(recs)-1].Seq != want {
		t.Errorf("last retained Seq = %d, want %d", recs[len(recs)-1].Seq, want)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("retained records not chronological at %d: %d then %d",
				i, recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// Non-value schedulers still produce records: candidates rank by (Slack,
// ID) and values read NoValue.
func TestDecisionTraceNonValueScheduler(t *testing.T) {
	dt := NewDecisionTrace(1 << 16)
	dt.SetMetrics(&DecisionMetrics{})
	MustRun(Config{
		Disk: xp(), Scheduler: sched.NewFCFS(),
		Options: Options{DropLate: true, Decisions: dt},
	}, decisionWorkload(3))
	for i, rec := range dt.Records() {
		if rec.Chosen.V != NoValue || rec.VSpread != 0 {
			t.Fatalf("record %d: FCFS exposes no values, got V=%d spread=%d",
				i, rec.Chosen.V, rec.VSpread)
		}
		for k := 1; k < rec.K; k++ {
			if candBySlack(rec.TopK[k-1], rec.TopK[k]) > 0 {
				t.Fatalf("record %d: TopK not in (Slack, ID) rank order at %d", i, k)
			}
		}
	}
}

// Every decision JSONL line must be valid JSON with the schema fields, one
// line per captured decision, and byte-identical across identical runs.
func TestDecisionJSONL(t *testing.T) {
	run := func() (*bytes.Buffer, uint64) {
		var buf bytes.Buffer
		dt := NewDecisionTrace(64)
		dt.SetMetrics(&DecisionMetrics{})
		dt.OnRecord = DecisionJSONL(&buf)
		MustRun(Config{
			Disk: xp(), Scheduler: cascadedScheduler(),
			Options: Options{DropLate: true, Decisions: dt},
		}, decisionWorkload(4))
		return &buf, dt.Total()
	}
	buf, total := run()
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if uint64(len(lines)) != total {
		t.Fatalf("%d JSONL lines for %d decisions", len(lines), total)
	}
	var prevSeq int64 = -1
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		for _, key := range []string{"seq", "now", "head", "depth", "chosen", "topk"} {
			if _, ok := obj[key]; !ok {
				t.Fatalf("line %d missing %q: %s", i, key, line)
			}
		}
		if seq := int64(obj["seq"].(float64)); seq != prevSeq+1 {
			t.Fatalf("line %d: seq %d after %d", i, seq, prevSeq)
		} else {
			prevSeq = seq
		}
		if topk := obj["topk"].([]any); len(topk) == 0 || len(topk) > MaxTopK {
			t.Fatalf("line %d: topk has %d entries", i, len(topk))
		}
	}
	buf2, _ := run()
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("decision JSONL not byte-identical across identical runs")
	}
}

// Decision metrics must flow to the configured sink, not the global one.
func TestDecisionMetricsSink(t *testing.T) {
	var m DecisionMetrics
	dt := NewDecisionTrace(8)
	dt.SetMetrics(&m)
	MustRun(Config{
		Disk: xp(), Scheduler: sched.NewCSCAN(),
		Options: Options{DropLate: true, Decisions: dt},
	}, decisionWorkload(5))
	if got := m.Decisions.Load(); got != dt.Total() {
		t.Errorf("metrics sink saw %d decisions, trace captured %d", got, dt.Total())
	}
	if m.CandidateDepth.Count() != dt.Total() {
		t.Errorf("candidate depth observations = %d, want %d", m.CandidateDepth.Count(), dt.Total())
	}
}

// A run with a decision trace attached must replay the exact trajectory of
// a run without one: capture is read-only.
func TestDecisionTraceDoesNotPerturb(t *testing.T) {
	trace := decisionWorkload(6)
	run := func(dt *DecisionTrace) ([]flatEvent, *Result) {
		var events []flatEvent
		res := MustRun(Config{
			Disk: xp(), Scheduler: cascadedScheduler(),
			Options: Options{DropLate: true, SampleRotation: true, Seed: 9,
				Decisions: dt,
				Trace:     func(ev TraceEvent) { events = append(events, flatten(ev)) }},
		}, smallTraceCopy(trace))
		return events, res
	}
	evPlain, resPlain := run(nil)
	dt := NewDecisionTrace(128)
	dt.SetMetrics(&DecisionMetrics{})
	evTraced, resTraced := run(dt)
	if !reflect.DeepEqual(evPlain, evTraced) {
		t.Error("TraceEvent stream diverged with a decision trace attached")
	}
	if !reflect.DeepEqual(resPlain.Collector, resTraced.Collector) {
		t.Error("collector diverged with a decision trace attached")
	}
	if resPlain.HeadTravel != resTraced.HeadTravel {
		t.Error("head travel diverged with a decision trace attached")
	}
}
