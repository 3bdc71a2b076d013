package perfbench

import "testing"

// The suite's entries are exposed as ordinary Go benchmarks so the CI
// benchmark-smoke step (and any `go test -bench` run) exercises exactly
// what cmd/flowerbench's perf suite measures.

func BenchmarkPutLegacy(b *testing.B)          { Run(b, "put_legacy") }
func BenchmarkHandleAppend(b *testing.B)       { Run(b, "handle_append") }
func BenchmarkPutRetentionLegacy(b *testing.B) { Run(b, "put_retention_legacy") }
func BenchmarkHandleAppendRetention(b *testing.B) {
	Run(b, "handle_append_retention")
}
func BenchmarkWindowStatLegacy(b *testing.B)    { Run(b, "window_stat_legacy") }
func BenchmarkHandleStat(b *testing.B)          { Run(b, "handle_stat") }
func BenchmarkWindowStatP99Legacy(b *testing.B) { Run(b, "window_stat_p99_legacy") }
func BenchmarkHandleStatP99(b *testing.B)       { Run(b, "handle_stat_p99") }
func BenchmarkGetStatisticsResampleLegacy(b *testing.B) {
	Run(b, "get_statistics_resample_legacy")
}
func BenchmarkHandleWindowResample(b *testing.B) { Run(b, "handle_window_resample") }
func BenchmarkSimTick(b *testing.B)              { Run(b, "sim_tick") }
func BenchmarkSingleQueriesX16(b *testing.B)     { Run(b, "single_query_x16") }
func BenchmarkBatchQueryX16(b *testing.B)        { Run(b, "batch_query_x16") }
