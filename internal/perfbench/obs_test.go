package perfbench

import "testing"

// The observability suite doubles as go-test benchmarks; `go test -bench
// Obs ./internal/perfbench` runs them all.
func BenchmarkObsCounterInc(b *testing.B)           { RunObs(b, "counter_inc") }
func BenchmarkObsCounterRead(b *testing.B)          { RunObs(b, "counter_read") }
func BenchmarkObsVecWithInc(b *testing.B)           { RunObs(b, "vec_with_inc") }
func BenchmarkObsHistogramObserve(b *testing.B)     { RunObs(b, "histogram_observe") }
func BenchmarkObsTracerBeginUnsampled(b *testing.B) { RunObs(b, "tracer_begin_unsampled") }
func BenchmarkObsHandleAppendHot(b *testing.B)      { RunObs(b, "handle_append_hot") }
func BenchmarkObsRowAppendHot(b *testing.B)         { RunObs(b, "row_append_hot") }
func BenchmarkObsScrapeSnapshot(b *testing.B)       { RunObs(b, "scrape_snapshot") }
func BenchmarkObsScrapeProm(b *testing.B)           { RunObs(b, "scrape_prom_text") }

// TestObsBudgets asserts the allocation budgets the report enforces: the
// write side and the counter read must not allocate in steady state, and
// the Prometheus text rendering stays within its measured budget.
func TestObsBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	for _, bench := range ObsSuite() {
		if bench.MaxAllocs < 0 {
			continue
		}
		r := testing.Benchmark(bench.F)
		if got := r.AllocsPerOp(); got > bench.MaxAllocs {
			t.Errorf("%s: %d allocs/op, budget %d", bench.Name, got, bench.MaxAllocs)
		}
	}
}
