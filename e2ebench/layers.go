package main

import (
	"encoding/json"
	"sort"
	"time"

	apiv1 "repro/api/v1"

	"repro/internal/core"
	"repro/internal/metricstore"
	"repro/internal/registry"
	"repro/internal/timeseries"
)

// metricDef documents one metric: what it measures it in, which way is
// better, and — for per-layer metrics — the end-to-end metrics it should
// move and the workloads where its layer does most and little work.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better,omitempty"`
	Moves  []string `json:"should_move,omitempty"`
	Most   string   `json:"most_work,omitempty"`
	Little string   `json:"little_work,omitempty"`
}

// endToEnd are the metrics a user of the system sees that reproduce from
// run to run, reported by untraced runs with a regression bound each.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "pace_fidelity", Unit: "ratio", Better: "higher"},
	{Name: "cpu_us_per_advance", Unit: "us", Better: "lower"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "api_ok_frac", Unit: "ratio", Better: "higher"},
	{Name: "watch_delivered_frac", Unit: "ratio", Better: "higher"},
}

// latencies are the user-facing timings. Every run prints them, but on a
// shared two-CPU machine their run-to-run spread is wider than any usable
// regression bound — host scheduling wakes idle vCPUs milliseconds late —
// so they carry no bound: the traced run reports them with the per-layer
// metrics, and untraced runs print them as information.
var latencies = []metricDef{
	{Name: "pace_lag_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "pace_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "api_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "watch_delivery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "watch_delivery_p99_ms", Unit: "ms", Better: "lower"},
}

func isLatency(name string) bool {
	for _, d := range latencies {
		if d.Name == name {
			return true
		}
	}
	return false
}

// perLayer are the metrics of single modules, reported by traced runs.
var perLayer = func() []metricDef {
	lagFid := []string{"pace_lag_p99_ms", "pace_fidelity"}
	cpu := []string{"cpu_us_per_advance"}
	heapCPU := []string{"heap_live_mb", "cpu_us_per_advance"}
	defs := append([]metricDef(nil), latencies...)
	defs = append(defs, []metricDef{
		{Name: "sched.executed_per_s", Unit: "1/s", Better: "higher", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.run_us_mean", Unit: "us", Better: "lower", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.late_runs", Unit: "count", Better: "lower", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.skipped_ticks", Unit: "count", Better: "lower", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.mean_batch", Unit: "count", Better: "higher", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.steals", Unit: "count", Better: "higher", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.queue_depth_max", Unit: "count", Better: "lower", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.probe_wait_us_p50", Unit: "us", Better: "lower", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "sched.probe_wait_us_p99", Unit: "us", Better: "lower", Moves: lagFid, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "registry.self_us", Unit: "us", Better: "lower", Moves: cpu, Most: "pace_fresh", Little: "api_mixed"},
		{Name: "registry.advance_serial_us", Unit: "us", Better: "lower", Moves: cpu, Most: "pace_fresh", Little: "api_mixed"},
	}...)
	for _, sub := range []string{"workload", "stream", "compute", "kvstore", "billing"} {
		defs = append(defs, metricDef{Name: sub + ".tick_us", Unit: "us", Better: "lower", Moves: cpu, Most: "pace_fresh", Little: "api_mixed"})
	}
	defs = append(defs,
		metricDef{Name: "control.tick_us", Unit: "us", Better: "lower", Moves: cpu, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "sim.result_us", Unit: "us", Better: "lower", Moves: cpu, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "split.substrates_frac", Unit: "ratio", Better: "higher", Moves: cpu, Most: "pace_fresh", Little: "api_mixed"},
		metricDef{Name: "split.sim_result_frac", Unit: "ratio", Better: "lower", Moves: cpu, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "split.registry_self_frac", Unit: "ratio", Better: "lower", Moves: cpu, Most: "pace_fresh", Little: "api_mixed"},
		metricDef{Name: "metricstore.series_per_flow", Unit: "count", Better: "lower", Moves: heapCPU, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "metricstore.points_per_flow", Unit: "count", Better: "lower", Moves: heapCPU, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "metricstore.appends_per_advance", Unit: "count", Better: "lower", Moves: heapCPU, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "control.decisions_per_flow", Unit: "count", Better: "lower", Moves: heapCPU, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "heap.bytes_per_flow_day", Unit: "B/flow-day", Better: "lower", Moves: heapCPU, Most: "pace_aged", Little: "pace_fresh"},
		metricDef{Name: "eventbus.published_per_s", Unit: "1/s", Better: "higher", Moves: []string{"cpu_us_per_advance", "watch_delivered_frac"}, Most: "pace_fresh", Little: "api_mixed"},
		metricDef{Name: "eventbus.dropped", Unit: "count", Better: "lower", Moves: []string{"watch_delivered_frac", "cpu_us_per_advance"}, Most: "api_mixed", Little: "pace_aged"},
	)
	api := []string{"api_p50_ms", "api_p99_ms"}
	for _, r := range routeNames {
		defs = append(defs,
			metricDef{Name: "httpapi." + r + ".p50_ms", Unit: "ms", Better: "lower", Moves: api, Most: "api_mixed", Little: "pace_fresh"},
			metricDef{Name: "httpapi." + r + ".p99_ms", Unit: "ms", Better: "lower", Moves: api, Most: "api_mixed", Little: "pace_fresh"},
			metricDef{Name: "httpapi." + r + ".errors", Unit: "count", Better: "lower", Moves: api, Most: "api_mixed", Little: "pace_fresh"},
			metricDef{Name: "httpapi." + r + ".bytes_mean", Unit: "bytes", Better: "lower", Moves: api, Most: "api_mixed", Little: "pace_fresh"},
		)
	}
	p99 := []string{"api_p99_ms"}
	for _, r := range queryRoutes {
		defs = append(defs,
			metricDef{Name: "query." + r + ".plan_us", Unit: "us", Better: "lower", Moves: p99, Most: "api_mixed", Little: "pace_aged"},
			metricDef{Name: "query." + r + ".exec_us", Unit: "us", Better: "lower", Moves: p99, Most: "api_mixed", Little: "pace_aged"},
			metricDef{Name: "query." + r + ".rows", Unit: "count", Better: "higher", Moves: p99, Most: "api_mixed", Little: "pace_aged"},
		)
	}
	wal := []string{"httpapi.tune.p99_ms", "api_p99_ms"}
	rt := heapCPU
	defs = append(defs,
		metricDef{Name: "persist.wal_append_us_p50", Unit: "us", Better: "lower", Moves: wal, Most: "api_mixed", Little: "pace_fresh"},
		metricDef{Name: "persist.wal_append_us_p99", Unit: "us", Better: "lower", Moves: wal, Most: "api_mixed", Little: "pace_fresh"},
		metricDef{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: rt, Most: "pace_aged", Little: "api_mixed"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: rt, Most: "pace_fresh", Little: "api_mixed"},
		metricDef{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: rt, Most: "pace_aged", Little: "api_mixed"},
		metricDef{Name: "runtime.goroutines_max", Unit: "count", Better: "lower", Moves: rt, Most: "api_mixed", Little: "pace_aged"},
		metricDef{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", Most: "api_mixed", Little: "pace_aged"},
		metricDef{Name: "loadgen.sent", Unit: "count", Better: "higher", Most: "api_mixed", Little: "pace_aged"},
		metricDef{Name: "loadgen.valid", Unit: "count", Better: "higher", Most: "api_mixed", Little: "pace_aged"},
		metricDef{Name: "watch.reconnects", Unit: "count", Better: "lower", Moves: []string{"watch_delivered_frac"}, Most: "api_mixed", Little: "pace_aged"},
	)
	// The traced run's own end-to-end values: minus the untraced medians,
	// they are the tracing overhead.
	for _, e := range endToEnd {
		defs = append(defs, metricDef{Name: "traced." + e.Name, Unit: e.Unit, Better: e.Better, Moves: []string{e.Name}})
	}
	return defs
}()

// layers computes the per-layer metrics of a traced run and replaces the
// outcome's metrics with them, in catalog order.
func layers(o *outcome, cfg config, fx *fixture, tr *tracer, s0, s1 snap, advances float64,
	perRoute map[string][]result, lates []float64, wt *watcher, liveHeap, peakHeap, maxGoroutines, maxQueue float64) error {
	w := cfg.w
	win := s1.at.Sub(s0.at).Seconds()
	v := make(map[string]float64)
	for _, m := range o.metrics {
		if isLatency(m.name) {
			v[m.name] = m.value
		} else {
			v["traced."+m.name] = m.value
		}
	}

	// sched: deltas over the window, less the probes' own (near-empty)
	// executions so the run figures describe flow advances.
	var waits []float64
	probeRuns := 0
	for _, p := range fx.probes {
		fires, late := p.waits(s0.at, s1.at)
		for i, d := range late {
			waits = append(waits, us(d))
			tr.record("sched.probe_wait", fires[i].at.Add(-d), fires[i].at)
		}
		probeRuns += len(fires)
	}
	a, b := s0.sched, s1.sched
	v["sched.executed_per_s"] = (float64(b.ExecutedFlow+b.ExecutedBatch-a.ExecutedFlow-a.ExecutedBatch) - float64(probeRuns)) / win
	var sum time.Duration
	var count uint64
	for i := range b.PerShard {
		sum += b.PerShard[i].Latency.Sum - a.PerShard[i].Latency.Sum
		count += b.PerShard[i].Latency.Count - a.PerShard[i].Latency.Count
	}
	runMean := 0.0
	if n := float64(count) - float64(probeRuns); n > 0 {
		runMean = us(sum) / n
	}
	v["sched.run_us_mean"] = runMean
	v["sched.late_runs"] = float64(b.LateRuns - a.LateRuns)
	v["sched.skipped_ticks"] = float64(b.SkippedTicks - a.SkippedTicks)
	if nb := b.Batches - a.Batches; nb > 0 {
		v["sched.mean_batch"] = float64(b.BatchJobs-a.BatchJobs) / float64(nb)
	}
	v["sched.steals"] = float64(b.Steals - a.Steals)
	v["sched.queue_depth_max"] = maxQueue
	v["sched.probe_wait_us_p50"] = quantile(waits, 0.5)
	v["sched.probe_wait_us_p99"] = quantile(waits, tailQuantile(len(waits)))

	// Shadow spans: per-step substrate self times and per-advance result.
	// Every span's self time is also reported per name.
	self := selfTimes(tr.snapshot())
	shadowAdvances := len(self["shadow.advance"])
	steps := float64(shadowAdvances * max(1, int(w.pace*w.wallTick.Seconds()/simStep.Seconds())))
	substrates := 0.0
	for _, sub := range []string{"workload", "stream", "compute", "kvstore", "billing", "control"} {
		total := 0.0
		for _, d := range self[sub+".tick"] {
			total += us(d)
		}
		perStep := 0.0
		if steps > 0 {
			perStep = total / steps
		}
		v[sub+".tick_us"] = perStep
		substrates += perStep
	}
	var results []float64
	for _, d := range self["sim.result"] {
		results = append(results, us(d))
	}
	v["sim.result_us"] = mean(results)
	// The paced flows' mean steps per advance (catch-up ticks take more).
	stepsPerAdvance := 0.0
	for i := range fx.flows {
		stepsPerAdvance += float64(s1.flowSim[i]-s0.flowSim[i]) / float64(simStep)
	}
	if advances > 0 {
		stepsPerAdvance /= advances
	}
	stepShare := substrates * stepsPerAdvance
	v["registry.self_us"] = runMean - stepShare - v["sim.result_us"]
	if runMean > 0 {
		v["split.substrates_frac"] = stepShare / runMean
		v["split.sim_result_frac"] = v["sim.result_us"] / runMean
		v["split.registry_self_frac"] = v["registry.self_us"] / runMean
	}
	serial, err := serialAdvance(fx, w)
	if err != nil {
		return err
	}
	v["registry.advance_serial_us"] = serial

	// metricstore and control state on the first flow; heap per flow-day.
	var series, points, decisions float64
	fx.flows[0].View(func(m *core.Manager) {
		m.Store().Each(func(_ metricstore.MetricID, view timeseries.View) {
			series++
			points += float64(view.Len())
		})
		for _, loop := range m.Harness().Loops {
			decisions += float64(len(loop.Decisions()))
		}
	})
	v["metricstore.series_per_flow"] = series
	v["metricstore.points_per_flow"] = points
	if advances > 0 {
		v["metricstore.appends_per_advance"] = (s1.appends - s0.appends) / advances
	}
	v["control.decisions_per_flow"] = decisions
	flowDays := 0.0
	for _, d := range s1.flowSim {
		flowDays += d.Hours() / 24
	}
	v["heap.bytes_per_flow_day"] = liveHeap / flowDays

	v["eventbus.published_per_s"] = float64(s1.published-s0.published) / win
	v["eventbus.dropped"] = float64(s1.dropped - s0.dropped)

	// httpapi: client-side spans per route.
	for _, r := range routeNames {
		var lat, bytes []float64
		errs := 0
		for _, res := range perRoute[r] {
			if !res.ok() {
				errs++
				continue
			}
			lat = append(lat, ms(res.end.Sub(res.start)))
			bytes = append(bytes, float64(res.bytes))
		}
		v["httpapi."+r+".p50_ms"] = quantile(lat, 0.5)
		v["httpapi."+r+".p99_ms"] = quantile(lat, tailQuantile(len(lat)))
		v["httpapi."+r+".errors"] = float64(errs)
		v["httpapi."+r+".bytes_mean"] = mean(bytes)
	}
	for _, r := range queryRoutes {
		var plan, exec, rows []float64
		for _, res := range perRoute[r] {
			if st, ok := queryStats(res); ok {
				plan = append(plan, float64(st.PlanNanos)/1e3)
				exec = append(exec, float64(st.ExecNanos)/1e3)
				rows = append(rows, float64(st.Rows))
			}
		}
		v["query."+r+".plan_us"] = median(plan)
		v["query."+r+".exec_us"] = median(exec)
		v["query."+r+".rows"] = median(rows)
	}
	var walUs []float64
	for _, d := range self["persist.wal_append"] {
		walUs = append(walUs, us(d))
	}
	v["persist.wal_append_us_p50"] = quantile(walUs, 0.5)
	v["persist.wal_append_us_p99"] = quantile(walUs, tailQuantile(len(walUs)))

	// The runtime's GC CPU estimate as a share of the CPU the process used.
	if cpu := (s1.cpu - s0.cpu).Seconds(); cpu > 0 {
		v["runtime.gc_cpu_frac"] = (rtFloat(s1.rt[rtGCCPU]) - rtFloat(s0.rt[rtGCCPU])) / cpu
	}
	v["runtime.gc_cycles"] = rtFloat(s1.rt[rtGCCycles]) - rtFloat(s0.rt[rtGCCycles])
	v["runtime.heap_peak_mb"] = peakHeap / (1 << 20)
	v["runtime.goroutines_max"] = maxGoroutines

	v["loadgen.late_ms_p99"] = quantile(lates, 0.99)
	v["loadgen.sent"] = float64(len(lates))
	if o.invalid == "" {
		v["loadgen.valid"] = 1
	}
	v["watch.reconnects"] = float64(wt.reconnects)

	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		total := 0.0
		for _, d := range self[name] {
			total += ms(d)
		}
		o.selfTimes = append(o.selfTimes, selfTime{name: name, totalMs: total, spans: len(self[name])})
	}

	o.metrics = o.metrics[:0]
	for _, d := range perLayer {
		o.add(d.Name, v[d.Name], d.Unit)
	}
	return nil
}

// queryStats decodes the engine's own plan and execution timings from a
// kept /v1/query response.
func queryStats(r result) (apiv1.QueryStats, bool) {
	if !r.ok() || r.body == nil {
		return apiv1.QueryStats{}, false
	}
	var resp apiv1.QueryResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return apiv1.QueryStats{}, false
	}
	return resp.Stats, true
}

// serialAdvance is the single-threaded baseline: a serial loop of
// one-step Flow.Advance calls on an unpaced copy of the first flow, in a
// registry of its own that never paces anything.
func serialAdvance(fx *fixture, w workload) (float64, error) {
	reg := registry.New()
	defer reg.Close()
	f, err := reg.Create("serial", fx.spec, fx.opts[0])
	if err != nil {
		return 0, err
	}
	if _, err := f.Advance(w.age); err != nil {
		return 0, err
	}
	const n = 500
	start := time.Now()
	for range n {
		if _, err := f.Advance(simStep); err != nil {
			return 0, err
		}
	}
	return us(time.Since(start)) / n, nil
}
