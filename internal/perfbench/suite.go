package perfbench

import (
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/sim"
	"repro/internal/simtime"
	"repro/internal/timeseries"
)

// Bench is one named micro-benchmark. Baseline, when set, names the
// legacy-implementation benchmark this one is measured against: the perf
// report divides the baseline's ns/op and allocs/op by this benchmark's to
// produce the speedup columns.
type Bench struct {
	Name     string
	Baseline string
	F        func(b *testing.B)
}

// Benchmark query shape: seriesPoints of 1 Hz history, windowed stats over
// the trailing windowPoints.
const (
	seriesPoints = 10_000
	windowPoints = 600
)

var benchDims = map[string]string{"StreamName": "bench", "Shard": "s-01"}

// Suite returns the metric-pipeline micro-benchmarks in report order. Each
// entry is runnable both through `go test -bench` (see suite_test.go) and
// through testing.Benchmark from cmd/flowerbench's perf suite.
func Suite() []Bench {
	return []Bench{
		{Name: "put_legacy", F: benchLegacyPut},
		{Name: "handle_append", Baseline: "put_legacy", F: benchHandleAppend},
		{Name: "put_retention_legacy", F: benchLegacyPutRetention},
		{Name: "handle_append_retention", Baseline: "put_retention_legacy", F: benchHandleAppendRetention},
		{Name: "window_stat_legacy", F: benchLegacyWindowStat},
		{Name: "handle_stat", Baseline: "window_stat_legacy", F: benchHandleStat},
		{Name: "window_stat_p99_legacy", F: benchLegacyWindowStatP99},
		{Name: "handle_stat_p99", Baseline: "window_stat_p99_legacy", F: benchHandleStatP99},
		{Name: "get_statistics_resample_legacy", F: benchLegacyGetStatisticsResample},
		{Name: "handle_window_resample", Baseline: "get_statistics_resample_legacy", F: benchHandleWindowResample},
		{Name: "sim_tick", F: benchSimTick},
		{Name: "single_query_x16", F: benchSingleQueries16},
		{Name: "batch_query_x16", Baseline: "single_query_x16", F: benchBatchQuery16},
	}
}

// Run executes the named benchmark from the suite; it reports failure on an
// unknown name.
func Run(b *testing.B, name string) {
	b.Helper()
	for _, bench := range Suite() {
		if bench.Name == name {
			bench.F(b)
			return
		}
	}
	b.Fatalf("perfbench: no benchmark named %q", name)
}

func benchTime(i int) time.Time {
	return simtime.Epoch.Add(time.Duration(i) * time.Second)
}

// --- write path -----------------------------------------------------------

func benchLegacyPut(b *testing.B) {
	s := NewLegacyStore()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := s.Put("Ingestion/Stream", "IncomingRecords", benchDims, benchTime(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHandleAppend(b *testing.B) {
	s := metricstore.NewStore()
	h := s.MustHandle("Ingestion/Stream", "IncomingRecords", benchDims)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := h.Append(benchTime(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// Retention variants keep a 10-minute window over 1 Hz appends, so the
// legacy path's copy-per-insert pruning is on for nearly every iteration.
func benchLegacyPutRetention(b *testing.B) {
	s := NewLegacyStore()
	s.SetRetention(10 * time.Minute)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := s.Put("Ingestion/Stream", "IncomingRecords", benchDims, benchTime(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHandleAppendRetention(b *testing.B) {
	s := metricstore.NewStore()
	s.SetRetention(10 * time.Minute)
	h := s.MustHandle("Ingestion/Stream", "IncomingRecords", benchDims)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if err := h.Append(benchTime(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- read path ------------------------------------------------------------

// fillLegacy / fillStore prepopulate one metric with seriesPoints of 1 Hz
// history and return the window bounds of the trailing windowPoints.
func fillLegacy(b *testing.B) (*LegacyStore, time.Time, time.Time) {
	b.Helper()
	s := NewLegacyStore()
	for i := 0; i < seriesPoints; i++ {
		if err := s.Put("Ingestion/Stream", "IncomingRecords", benchDims, benchTime(i), float64(i%97)); err != nil {
			b.Fatal(err)
		}
	}
	return s, benchTime(seriesPoints - windowPoints), benchTime(seriesPoints - 1).Add(time.Nanosecond)
}

func fillStore(b *testing.B) (*metricstore.Store, *metricstore.Handle, time.Time, time.Time) {
	b.Helper()
	s := metricstore.NewStore()
	h := s.MustHandle("Ingestion/Stream", "IncomingRecords", benchDims)
	for i := 0; i < seriesPoints; i++ {
		if err := h.Append(benchTime(i), float64(i%97)); err != nil {
			b.Fatal(err)
		}
	}
	return s, h, benchTime(seriesPoints - windowPoints), benchTime(seriesPoints - 1).Add(time.Nanosecond)
}

func benchLegacyWindowStat(b *testing.B) {
	s, from, to := fillLegacy(b)
	q := LegacyQuery{
		Namespace: "Ingestion/Stream", Name: "IncomingRecords", Dimensions: benchDims,
		From: from, To: to, Stat: timeseries.AggMean,
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, n, err := s.WindowStat(q); err != nil || n != windowPoints {
			b.Fatalf("window stat: n=%d err=%v", n, err)
		}
	}
}

func benchHandleStat(b *testing.B) {
	_, h, from, to := fillStore(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, n := h.Stat(from, to, timeseries.AggMean); n != windowPoints {
			b.Fatalf("window stat: n=%d", n)
		}
	}
}

func benchLegacyWindowStatP99(b *testing.B) {
	s, from, to := fillLegacy(b)
	q := LegacyQuery{
		Namespace: "Ingestion/Stream", Name: "IncomingRecords", Dimensions: benchDims,
		From: from, To: to, Stat: timeseries.AggP99,
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, n, err := s.WindowStat(q); err != nil || n != windowPoints {
			b.Fatalf("window stat: n=%d err=%v", n, err)
		}
	}
}

func benchHandleStatP99(b *testing.B) {
	_, h, from, to := fillStore(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, n := h.Stat(from, to, timeseries.AggP99); n != windowPoints {
			b.Fatalf("window stat: n=%d", n)
		}
	}
}

func benchLegacyGetStatisticsResample(b *testing.B) {
	s, _, _ := fillLegacy(b)
	q := LegacyQuery{
		Namespace: "Ingestion/Stream", Name: "IncomingRecords", Dimensions: benchDims,
		Period: time.Minute, Stat: timeseries.AggMean,
	}
	b.ReportAllocs()
	for b.Loop() {
		series, err := s.GetStatistics(q)
		if err != nil || series.Len() == 0 {
			b.Fatalf("resample: len=%d err=%v", series.Len(), err)
		}
	}
}

func benchHandleWindowResample(b *testing.B) {
	_, h, _, _ := fillStore(b)
	q := metricstore.WindowQuery{Period: time.Minute, Stat: timeseries.AggMean}
	b.ReportAllocs()
	for b.Loop() {
		if series := h.Window(q); series.Len() == 0 {
			b.Fatal("resample: empty")
		}
	}
}

// --- whole-system ---------------------------------------------------------

// benchSimTick advances a fully wired flow (generator → stream → cluster →
// table, with three adaptive control loops, billing and SLO accounting) by
// one 10-second simulation step per iteration — the end-to-end per-tick
// cost the metric pipeline sits inside.
func benchSimTick(b *testing.B) {
	window := 2 * time.Minute
	spec, err := flow.NewBuilder("bench").
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: 2000}).
		WithIngestion(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithAnalytics(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithStorage(200, 50, 20000, flow.DefaultAdaptive(60, window, 400)).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	h, err := sim.New(spec, sim.Options{Step: 10 * time.Second})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := h.Run(10 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
