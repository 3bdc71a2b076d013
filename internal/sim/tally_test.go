package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/flow"
	"repro/internal/kvstore"
	"repro/internal/stream"
)

// mapTally is the map-based accumulation account kept before its tallies
// moved into fixed arrays: a layer's violation count exists once the
// layer has violated, and its utilisation sum once it has been sampled.
// It is the oracle for Result's on-demand maps.
type mapTally struct {
	ticks      int
	violated   float64
	violations map[flow.LayerKind]int
	utilSum    map[flow.LayerKind]float64
}

// observe accounts one tick from what the harness published for it.
func (m *mapTally) observe(h *Harness) {
	name := h.spec.Name
	latest := func(ns, metric, dim string) (float64, bool) {
		p, ok := storeLatest(h.Store, ns, metric, map[string]string{dim: name})
		return p.V, ok
	}
	m.ticks++
	violated := false
	if v, ok := latest(stream.Namespace, stream.MetricThrottledWrites, "StreamName"); ok && v > 0 {
		m.violations[flow.Ingestion]++
		violated = true
	}
	if h.Cluster.PendingTuples() > 0 {
		m.violations[flow.Analytics]++
		violated = true
	}
	if v, ok := latest(kvstore.Namespace, kvstore.MetricThrottledWrites, "TableName"); ok && v > 0 {
		m.violations[flow.Storage]++
		violated = true
	}
	if h.Queries != nil {
		if v, ok := latest(kvstore.Namespace, kvstore.MetricThrottledReads, "TableName"); ok && v > 0 {
			m.violations[flow.StorageReads]++
			violated = true
		}
	}
	if violated {
		m.violated++
	}
	if v, ok := latest(stream.Namespace, stream.MetricOfferedUtilization, "StreamName"); ok {
		m.utilSum[flow.Ingestion] += v
	}
	if v, ok := latest(compute.Namespace, compute.MetricCPUUtilization, "Topology"); ok {
		m.utilSum[flow.Analytics] += v
	}
	if v, ok := latest(kvstore.Namespace, kvstore.MetricWriteUtilization, "TableName"); ok {
		m.utilSum[flow.Storage] += v
	}
	if h.Queries != nil {
		if v, ok := latest(kvstore.Namespace, kvstore.MetricReadUtilization, "TableName"); ok {
			m.utilSum[flow.StorageReads] += v
		}
	}
}

// check compares the harness's Result with the oracle bit for bit,
// including which layers the two maps hold.
func (m *mapTally) check(t *testing.T, res Result) {
	t.Helper()
	if res.Ticks != m.ticks {
		t.Fatalf("ticks %d, oracle %d", res.Ticks, m.ticks)
	}
	if want := m.violated / float64(m.ticks); math.Float64bits(res.ViolationRate) != math.Float64bits(want) {
		t.Fatalf("tick %d: violation rate %v, oracle %v", m.ticks, res.ViolationRate, want)
	}
	if len(res.Violations) != len(m.violations) {
		t.Fatalf("tick %d: violations %v, oracle %v", m.ticks, res.Violations, m.violations)
	}
	for k, v := range m.violations {
		if got, ok := res.Violations[k]; !ok || got != v {
			t.Fatalf("tick %d: violations %v, oracle %v", m.ticks, res.Violations, m.violations)
		}
	}
	if len(res.MeanUtil) != len(m.utilSum) {
		t.Fatalf("tick %d: mean util %v, oracle sums %v", m.ticks, res.MeanUtil, m.utilSum)
	}
	for k, sum := range m.utilSum {
		got, ok := res.MeanUtil[k]
		if want := sum / float64(m.ticks); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tick %d: %s mean util %v, oracle %v", m.ticks, k, got, want)
		}
	}
}

// TestResultMatchesMapAccumulation runs a flow that violates on some
// layers and not others for two simulated days, with and without the
// dashboard read path, and requires Result (and the O(1) Ticks and
// ViolationRate) to equal the map-based accumulation after every tick
// checked.
func TestResultMatchesMapAccumulation(t *testing.T) {
	const step = 10 * time.Second
	days := 2 * 24 * time.Hour
	if testing.Short() {
		days = 6 * time.Hour
	}
	for _, dashboard := range []bool{false, true} {
		spec := dashboardSpec(t, 400, flow.DefaultAdaptive(60, 2*time.Minute, 50))
		if !dashboard {
			spec.Dashboard = flow.DashboardSpec{}
		}
		spec.Workload = flow.WorkloadSpec{
			Pattern: "sine", Base: 1500, Peak: 6000,
			Period: flow.Duration(6 * time.Hour), Poisson: true, Seed: 5,
		}
		h, err := New(spec, Options{Step: step})
		if err != nil {
			t.Fatal(err)
		}
		oracle := &mapTally{violations: map[flow.LayerKind]int{}, utilSum: map[flow.LayerKind]float64{}}
		if res := h.Result(); len(res.Violations) != 0 || len(res.MeanUtil) != 0 || res.ViolationRate != 0 {
			t.Fatalf("result before the first tick: %+v", res)
		}
		for h.Clock.Elapsed() < days {
			if err := h.Step(step); err != nil {
				t.Fatal(err)
			}
			oracle.observe(h)
			if h.Ticks() != oracle.ticks {
				t.Fatalf("Ticks() %d, oracle %d", h.Ticks(), oracle.ticks)
			}
			if want := oracle.violated / float64(oracle.ticks); math.Float64bits(h.ViolationRate()) != math.Float64bits(want) {
				t.Fatalf("tick %d: ViolationRate() %v, oracle %v", oracle.ticks, h.ViolationRate(), want)
			}
			if oracle.ticks%360 == 0 {
				oracle.check(t, h.Result())
			}
		}
		oracle.check(t, h.Result())
		if _, ok := oracle.violations[flow.Ingestion]; !ok || len(oracle.violations) == len(LoopKinds) {
			t.Fatalf("dashboard=%v: the run should violate on some layers and not all: %v", dashboard, oracle.violations)
		}
		if _, ok := oracle.utilSum[flow.StorageReads]; ok != dashboard {
			t.Fatalf("dashboard=%v: read utilisation sampled = %v", dashboard, ok)
		}
	}
}
