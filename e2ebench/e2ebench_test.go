package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload so a run takes a few seconds.
func tiny(name string) workload {
	w, _ := findWorkload(name)
	w.flows = min(w.flows, 32)
	w.age = min(w.age, 2*time.Hour)
	w.rate = 50
	w.setupReps = 1
	w.settle = 200 * time.Millisecond
	return w
}

func runTiny(t *testing.T, name string, traced, corrupt bool) *outcome {
	t.Helper()
	o, err := runWorkload(config{w: tiny(name), seed: 7, window: 1500 * time.Millisecond,
		traced: traced, scratch: t.TempDir(), corruptReference: corrupt})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return o
}

// summary runs report and decodes the closing JSON line.
func summary(t *testing.T, o *outcome) (map[string]any, int) {
	t.Helper()
	var out bytes.Buffer
	code := report(o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := s[k]; !ok {
			t.Fatalf("summary lacks %q: %s", k, lines[len(lines)-1])
		}
	}
	if len(s) != 4 {
		t.Fatalf("summary has keys beyond correct/attempted/failed/metrics: %s", lines[len(lines)-1])
	}
	return s, code
}

// wantMetrics checks the summary carries exactly the catalog's metrics,
// each with its unit.
func wantMetrics(t *testing.T, s map[string]any, defs []metricDef) {
	t.Helper()
	got := s["metrics"].(map[string]any)
	if len(got) != len(defs) {
		t.Errorf("%d metrics, catalog has %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m["unit"] != d.Unit {
			t.Errorf("metric %s has unit %v, want %s", d.Name, m["unit"], d.Unit)
		}
	}
}

func TestWorkloadsEmitEveryMetricAndPassChecks(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := runTiny(t, w.name, traced, false)
			s, code := summary(t, o)
			if code != 0 || s["correct"] != true {
				t.Errorf("%s traced=%v: checks failed: %v", w.name, traced, o.failures)
			}
			if s["attempted"].(float64) < 1 {
				t.Errorf("%s: attempted %v", w.name, s["attempted"])
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			wantMetrics(t, s, defs)
		}
	}
}

func TestCorruptedQueryReferenceFailsTheRun(t *testing.T) {
	o := runTiny(t, "api_mixed", false, true)
	s, code := summary(t, o)
	if code == 0 || s["correct"] != false {
		t.Fatalf("a corrupted query reference passed the checks")
	}
	if !strings.Contains(strings.Join(o.failures, "\n"), "naive reference") {
		t.Fatalf("failures do not name the query check: %v", o.failures)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json
// and the metrics this program emits in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].name || w.Why != workloads[i].why) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestCheckWatchNeedsMarkersForGaps(t *testing.T) {
	ev := func(seq uint64) sseEvent { return sseEvent{typ: "flow.advanced", seq: seq} }
	ref := []uint64{10, 12, 14, 16}
	if err := checkWatch([]sseEvent{ev(10), ev(12), ev(14), ev(16)}, ref); err != nil {
		t.Fatalf("complete stream rejected: %v", err)
	}
	if err := checkWatch([]sseEvent{ev(10), ev(14), ev(16)}, ref); err == nil {
		t.Fatal("a gap without a dropped marker passed")
	}
	marked := []sseEvent{ev(10), {typ: "dropped", dropped: 1}, ev(14), ev(16)}
	if err := checkWatch(marked, ref); err != nil {
		t.Fatalf("a marked gap was rejected: %v", err)
	}
	if err := checkWatch([]sseEvent{ev(12), ev(10)}, ref); err == nil {
		t.Fatal("decreasing ids passed")
	}
}
