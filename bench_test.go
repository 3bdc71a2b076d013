// Repository-level benchmarks: one per paper artefact (see DESIGN.md §4
// and EXPERIMENTS.md), each delegating to internal/exper so that
// `go test -bench` and cmd/flowerbench print the same numbers, plus
// micro-benchmarks of the hot paths.
//
// The experiment benchmarks report domain metrics (correlation, settling
// minutes, saving percentages) via b.ReportMetric; wall-clock ns/op is the
// cost of regenerating the artefact.
package flower_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/exper"
	"repro/internal/lab"
	"repro/internal/nsga2"
	"repro/internal/regress"
	"repro/internal/share"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/workload"

	flower "repro"
)

const benchSeed = 42

// BenchmarkFig2Correlation regenerates experiment E1 (Fig. 2): the
// correlation between ingestion arrival rate and analytics CPU over a
// 550-minute trace. Paper: 0.95.
func BenchmarkFig2Correlation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.Fig2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Correlation, "corr")
		b.ReportMetric(float64(r.Samples), "samples")
	}
}

// BenchmarkEq2Regression regenerates experiment E2 (Eq. 2): the linear fit
// of analytics CPU on ingestion write volume. Paper: CPU ≈
// 0.0002·WriteCapacity + 4.8.
func BenchmarkEq2Regression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.Eq2(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Model.Slope*1e6, "slope_e6")
		b.ReportMetric(r.Model.Intercept, "intercept")
		b.ReportMetric(r.Model.R2, "r2")
	}
}

// BenchmarkFig4ParetoFront regenerates experiment E3 (Fig. 4): the Pareto
// front of the §3.2 example. Paper: six solutions.
func BenchmarkFig4ParetoFront(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.Fig4(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(r.Plans)), "plans")
	}
}

// BenchmarkControllerComparison regenerates experiment E4: adaptive vs
// fixed-gain vs quasi-adaptive vs rule on a 4× step. Paper/[9]: adaptive
// settles fastest.
func BenchmarkControllerComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.Controllers(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := r.Row("adaptive"); ok && !math.IsInf(row.SettleMinutes, 1) {
			b.ReportMetric(row.SettleMinutes, "adaptive_settle_min")
		}
		if row, ok := r.Row("fixed-gain"); ok && !math.IsInf(row.SettleMinutes, 1) {
			b.ReportMetric(row.SettleMinutes, "fixed_settle_min")
		}
		if row, ok := r.Row("quasi-adaptive"); ok && !math.IsInf(row.SettleMinutes, 1) {
			b.ReportMetric(row.SettleMinutes, "quasi_settle_min")
		}
	}
}

// BenchmarkGainMemoryAblation isolates the paper's "memory of recent
// controller decisions": the adaptive controller with and without gain
// carry-over across windows, on a sustained ramp with the plant guard off
// so the raw Eq. 6–7 dynamics are visible (DESIGN.md §5).
func BenchmarkGainMemoryAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.GainMemory(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if !math.IsInf(r.WithMemory.CatchUpMinutes, 1) {
			b.ReportMetric(r.WithMemory.CatchUpMinutes, "with_memory_catchup_min")
		}
		if !math.IsInf(r.Memoryless.CatchUpMinutes, 1) {
			b.ReportMetric(r.Memoryless.CatchUpMinutes, "memoryless_catchup_min")
		}
		b.ReportMetric(r.WithMemory.MeanAbsError, "with_memory_abs_err")
		b.ReportMetric(r.Memoryless.MeanAbsError, "memoryless_abs_err")
	}
}

// BenchmarkCostSaving regenerates experiment E5: multi-tier vs single-tier
// elasticity savings against static peak provisioning. Paper (per [15]):
// ≈65% vs ≈45%.
func BenchmarkCostSaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.CostSaving(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FullSavingPct, "full_saving_pct")
		b.ReportMetric(r.SingleSavingPct, "single_saving_pct")
	}
}

// BenchmarkRuleVsAdaptive regenerates experiment E6: flash-crowd response
// of Flower's adaptive controller vs provider-style rules.
func BenchmarkRuleVsAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RuleVsAdaptive(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.AdaptiveViolationRate*100, "adaptive_viol_pct")
		b.ReportMetric(r.RuleViolationRate*100, "rule_viol_pct")
	}
}

// BenchmarkMonitorSnapshot regenerates experiment E7: one consolidated
// all-in-one-place snapshot over a managed run.
func BenchmarkMonitorSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.Monitor(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Metrics), "metrics")
		b.ReportMetric(float64(len(r.Sections)), "platforms")
	}
}

// BenchmarkWindowSweep regenerates the monitoring-period ablation (the
// demo's "monitoring period" knob): resize churn at the shortest window
// vs violation lag at the longest.
func BenchmarkWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trials := runSweep(b, exper.WindowSweepSpec(benchSeed))
		first, last := trials[0], trials[len(trials)-1]
		b.ReportMetric(float64(totalActions(first)), "actions_30s")
		b.ReportMetric(float64(totalActions(last)), "actions_10m")
		b.ReportMetric(last.ViolationRate*100, "viol_pct_10m")
	}
}

// BenchmarkGammaSweep regenerates the elasticity-speed ablation (the Eq. 7
// adaptation rate γ).
func BenchmarkGammaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trials := runSweep(b, exper.GammaSweepSpec(benchSeed))
		b.ReportMetric(trials[0].TotalCost, "cost_gamma_min")
		b.ReportMetric(trials[len(trials)-1].TotalCost, "cost_gamma_max")
	}
}

// runSweep runs a sweep grid on a lab engine and returns its trial
// summaries in grid order, failing the benchmark on any failed trial.
func runSweep(b *testing.B, spec lab.Spec) []lab.TrialSummary {
	b.Helper()
	e := lab.NewEngine(0)
	defer e.Close()
	x, err := e.Submit(spec.Name, spec)
	if err != nil {
		b.Fatal(err)
	}
	<-x.Done()
	trials := x.Results().Trials
	for _, t := range trials {
		if t.Status != lab.TrialDone {
			b.Fatalf("trial %s: %s %s", t.Name, t.Status, t.Error)
		}
	}
	return trials
}

// totalActions counts a trial's applied resizes across all layers.
func totalActions(t lab.TrialSummary) int {
	n := 0
	for _, a := range t.Actions {
		n += a
	}
	return n
}

// BenchmarkAggregateVsPerRecord compares the two data paths of the
// simulation (DESIGN.md §5): the count-based aggregate path used by all
// experiments against the faithful per-record path, on the same 30-minute
// managed run. The ratio of their ns/op is the fast path's speedup.
func BenchmarkAggregateVsPerRecord(b *testing.B) {
	run := func(b *testing.B, perRecord bool) {
		for i := 0; i < b.N; i++ {
			spec, err := flower.DefaultClickstream(3000)
			if err != nil {
				b.Fatal(err)
			}
			mgr, err := flower.New(spec, sim.Options{
				Step: 10 * time.Second, Seed: 1, PerRecord: perRecord,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mgr.Run(30 * time.Minute); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("aggregate", func(b *testing.B) { run(b, false) })
	b.Run("per-record", func(b *testing.B) { run(b, true) })
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkStreamPutRecord measures the ingestion fast path.
func BenchmarkStreamPutRecord(b *testing.B) {
	st, err := stream.New("bench", 64, nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	payload := []byte("user-1,/page/2,https://example.com,flower-loadgen/1.0,1503878400")
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = "user-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.PutRecord(now, keys[i%len(keys)], payload)
		if i%1000 == 999 {
			b.StopTimer()
			st.DrainAll(1 << 20)
			st.Tick(now, time.Second)
			b.StartTimer()
		}
	}
}

// BenchmarkGeneratorTick measures a full generator tick at 1000 rec/s.
func BenchmarkGeneratorTick(b *testing.B) {
	st, err := stream.New("bench", 8, nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.NewGenerator(workload.GeneratorConfig{
		Pattern: workload.Constant(1000), Poisson: true, Seed: 1,
	}, st, nil)
	if err != nil {
		b.Fatal(err)
	}
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Tick(now, time.Second)
		b.StopTimer()
		st.DrainAll(1 << 20)
		st.Tick(now, time.Second)
		b.StartTimer()
	}
}

// BenchmarkNSGA2ShareAnalysis measures one full Fig. 4-sized NSGA-II solve.
func BenchmarkNSGA2ShareAnalysis(b *testing.B) {
	p := share.PaperExampleProblem(0.29, 0.015, 0.10, 0.00065)
	for i := 0; i < b.N; i++ {
		if _, err := share.Analyze(p, nsga2.Config{PopSize: 100, Generations: 100, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionFit measures an Eq. 2-sized OLS fit (550 points).
func BenchmarkRegressionFit(b *testing.B) {
	x := make([]float64, 550)
	y := make([]float64, 550)
	for i := range x {
		x[i] = float64(i)
		y[i] = 0.0002*x[i] + 4.8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagedSimMinute measures one simulated minute of the fully
// managed default flow (six 10s ticks at ~3000 rec/s).
func BenchmarkManagedSimMinute(b *testing.B) {
	spec, err := flower.DefaultClickstream(3000)
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := flower.New(spec, sim.Options{Step: 10 * time.Second, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Run(time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictiveVsReactive regenerates experiment E8: reactive-only
// elasticity vs reactive plus Holt-trend pre-provisioning on a 6× ramp.
func BenchmarkPredictiveVsReactive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.Predictive(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.ReactiveViolationRate*100, "reactive_viol_pct")
		b.ReportMetric(r.PredictiveViolationRate*100, "predictive_viol_pct")
	}
}
