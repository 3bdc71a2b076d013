package registry

import (
	"math"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

const retentionStep = 10 * time.Second

func sameDecision(a, b control.Decision) bool {
	bits := math.Float64bits
	return a.At.Equal(b.At) && bits(a.Measured) == bits(b.Measured) && bits(a.Ref) == bits(b.Ref) &&
		bits(a.OldU) == bits(b.OldU) && bits(a.NewU) == bits(b.NewU) && a.Applied == b.Applied && a.Note == b.Note
}

// requireSameDecisions compares the registry flow's decision trace with the
// reference harness's, bit for bit.
func requireSameDecisions(t *testing.T, f *Flow, ref *sim.Harness) {
	t.Helper()
	f.View(func(m *core.Manager) {
		loops := m.Harness().Loops
		if len(loops) != len(ref.Loops) {
			t.Fatalf("%d loops, reference %d", len(loops), len(ref.Loops))
		}
		for kind, loop := range loops {
			got, want := loop.Decisions(), ref.Loops[kind].Decisions()
			if len(got) != len(want) {
				t.Fatalf("%s: %d decisions, reference %d", kind, len(got), len(want))
			}
			for i := range want {
				if !sameDecision(got[i], want[i]) {
					t.Fatalf("%s: decision %d differs: %+v vs reference %+v", kind, i, got[i], want[i])
				}
			}
			if loop.Actions() != ref.Loops[kind].Actions() {
				t.Fatalf("%s: %d actions, reference %d", kind, loop.Actions(), ref.Loops[kind].Actions())
			}
		}
	})
}

// maxSeriesLen returns the longest metric column in the flow's store.
func maxSeriesLen(f *Flow) (longest int) {
	f.View(func(m *core.Manager) {
		m.Store().Each(func(_ metricstore.MetricID, v timeseries.View) {
			longest = max(longest, v.Len())
		})
	})
	return longest
}

func TestRegistryFlowRetentionBoundsHistoryAndKeepsDecisions(t *testing.T) {
	spec := testSpec(t, "aged")
	opts := sim.Options{Step: retentionStep, Seed: 5}
	f, err := New().Create("aged", spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	const age = 72 * time.Hour
	for done := time.Duration(0); done < age; done += 6 * time.Hour {
		if _, err := f.Advance(6 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if got, limit := maxSeriesLen(f), int(QueryHorizon/retentionStep)+1; got > limit {
		t.Fatalf("a series holds %d points after %v, horizon allows %d", got, age, limit)
	}

	ref, err := sim.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(age); err != nil {
		t.Fatal(err)
	}
	if ref.Store.Retention() != 0 {
		t.Fatal("reference harness prunes its metrics")
	}
	requireSameDecisions(t, f, ref)
}

func TestTuneRaisesRetentionPastHorizon(t *testing.T) {
	spec := testSpec(t, "tuned")
	opts := sim.Options{Step: retentionStep, Seed: 9}
	f, err := New().Create("tuned", spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	const before, after = time.Hour, 72 * time.Hour
	if _, err := f.Advance(before); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(before); err != nil {
		t.Fatal(err)
	}

	window := 30 * time.Hour
	if found, err := f.Tune(flow.Analytics, nil, nil, &window); err != nil || !found {
		t.Fatalf("tune: found %v, err %v", found, err)
	}
	ref.Loops[flow.Analytics].SetWindow(window)
	f.View(func(m *core.Manager) {
		if got := m.Store().Retention(); got != 2*window {
			t.Fatalf("retention after tuning a %v window = %v, want %v", window, got, 2*window)
		}
	})
	// A shorter window never lowers it again.
	short := time.Minute
	if _, err := f.Tune(flow.Ingestion, nil, nil, &short); err != nil {
		t.Fatal(err)
	}
	ref.Loops[flow.Ingestion].SetWindow(short)
	f.View(func(m *core.Manager) {
		if got := m.Store().Retention(); got != 2*window {
			t.Fatalf("retention after tuning a shorter window = %v, want %v", got, 2*window)
		}
	})

	if _, err := f.Advance(after); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(after); err != nil {
		t.Fatal(err)
	}
	requireSameDecisions(t, f, ref)
}

func TestMarkDecisionsAllocFree(t *testing.T) {
	f, err := New().Create("marks", testSpec(t, "marks"), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Advance(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	f.View(func(m *core.Manager) {
		if allocs := testing.AllocsPerRun(100, func() { _ = markDecisions(m) }); allocs > 0 {
			t.Fatalf("markDecisions allocated %.1f/op, want 0", allocs)
		}
	})
}
