package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// config is one run.
type config struct {
	w       workload
	seed    int64
	window  time.Duration
	traced  bool
	scratch string // directory for WAL data and span files
	// corruptReference perturbs one query reference value, so tests can
	// show the correctness check catches a wrong answer.
	corruptReference bool
}

// outcome is what one run measured and checked.
type outcome struct {
	metrics   []metric // the summary's metrics
	info      []metric // printed, not in the summary
	failures  []string // failed correctness checks
	attempted int
	failed    int
	invalid   string // why the run is not a valid measurement ("" if valid)
	selfTimes []selfTime
}

// selfTime is one span name's total self time in a traced window.
type selfTime struct {
	name    string
	totalMs float64
	spans   int
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (o *outcome) add(name string, value float64, unit string) {
	o.metrics = append(o.metrics, metric{name, value, unit})
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// lagRec is one flow.advanced event seen by the in-process subscriber.
type lagRec struct {
	seq  uint64
	flow string
	at   time.Time
	sim  time.Duration
}

// snap is the state read at a window boundary.
type snap struct {
	at        time.Time
	cpu       time.Duration
	sched     sched.Stats
	advances  float64
	appends   float64
	published uint64
	dropped   uint64
	rt        []metrics.Sample
	flowWall  []time.Time
	flowSim   []time.Duration
}

// The runtime/metrics samples read at window boundaries, by index.
const (
	rtGCCPU = iota
	rtGCCycles
	rtHeapLive
	rtHeapObjects
	rtGoroutines
)

var runtimeNames = []string{
	rtGCCPU:       "/cpu/classes/gc/total:cpu-seconds",
	rtGCCycles:    "/gc/cycles/total:gc-cycles",
	rtHeapLive:    "/gc/heap/live:bytes",
	rtHeapObjects: "/memory/classes/heap/objects:bytes",
	rtGoroutines:  "/sched/goroutines:goroutines",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func counter(s telemetry.Snapshot, name string) float64 {
	f := s.Find(name)
	if f == nil {
		return 0
	}
	total := 0.0
	for _, m := range f.Metrics {
		total += m.Value
	}
	return total
}

func takeSnap(fx *fixture) snap {
	var s snap
	s.flowWall = make([]time.Time, len(fx.flows))
	s.flowSim = make([]time.Duration, len(fx.flows))
	for i, f := range fx.flows {
		f.View(func(m *core.Manager) { s.flowSim[i] = m.Harness().Clock.Elapsed() })
		s.flowWall[i] = time.Now()
	}
	tel := telemetry.Default().Snapshot()
	s.sched = fx.plane.Stats()
	s.advances = counter(tel, "flower_registry_advances_total")
	s.appends = counter(tel, "flower_store_appends_total")
	s.published = fx.reg.Events().Published()
	s.dropped = fx.reg.Events().TotalDropped()
	s.rt = readRuntime()
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

// runWorkload sets up the fixture, measures one window and checks the
// outputs.
func runWorkload(cfg config) (*outcome, error) {
	w := cfg.w
	o := &outcome{}
	p := makePlan(w, cfg.seed, cfg.window)
	var tr *tracer
	if cfg.traced {
		tr = &tracer{}
	}

	// Set-up, repeated: setup_s is the median, the last fixture is kept.
	reps := w.setupReps
	if cfg.traced {
		reps = 1 // traced runs report layers, not setup_s
	}
	var setups []float64
	var fx *fixture
	for r := range reps {
		dir := filepath.Join(cfg.scratch, fmt.Sprintf("e2ebench-data-%d-%d", os.Getpid(), r))
		start := time.Now()
		f, err := build(w, cfg.seed, dir, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if r < reps-1 {
			f.close()
			runtime.GC()
			continue
		}
		fx = f
	}
	defer fx.close()

	// The in-process lag subscriber: every lagEvery-th flow.
	lagSet := make(map[string]bool)
	var lagIDs []string
	for i := 0; i < w.flows; i += w.lagEvery {
		lagSet[flowID(i)] = true
		lagIDs = append(lagIDs, flowID(i))
	}
	// Buffered for the whole window's events so the reference itself never
	// drops; a drop is still detected and fails the run.
	sub := fx.reg.Events().Subscribe(1<<18, eventbus.Live, func(ev eventbus.Event) bool {
		return ev.Type == registry.EventFlowAdvanced && lagSet[ev.Topic]
	})
	var lags []lagRec
	var subDone sync.WaitGroup
	subDone.Add(1)
	go func() {
		defer subDone.Done()
		for ev := range sub.Events() {
			adv := ev.Data.(registry.FlowAdvanced)
			lags = append(lags, lagRec{seq: ev.Seq, flow: ev.Topic, at: ev.At, sim: adv.SimTime.Sub(simtime.Epoch)})
		}
	}()
	subOpen := true
	closeSub := func() {
		if subOpen {
			sub.Close()
			subDone.Wait()
			subOpen = false
		}
	}
	defer closeSub()

	// The SSE watch, on its own connection.
	watchSet := make(map[string]bool)
	url := fx.base + "/v1/watch?types=flow.advanced"
	if w.watchFlows > 0 {
		ids := lagIDs[:min(w.watchFlows, len(lagIDs))]
		for _, id := range ids {
			watchSet[id] = true
		}
		url = fx.base + "/v1/watch?flows=" + strings.Join(ids, ",") + "&types=flow.advanced"
	} else {
		for i := range w.flows {
			watchSet[flowID(i)] = true
		}
	}
	wctx, wcancel := context.WithCancel(context.Background())
	wt := &watcher{client: newClient(), url: url, ready: make(chan struct{})}
	ready := wt.ready
	var watchDone sync.WaitGroup
	watchDone.Add(1)
	go func() { defer watchDone.Done(); wt.run(wctx) }()
	stopWatch := func() { wcancel(); watchDone.Wait() }
	defer stopWatch()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("watch stream %s never said hello", url)
	}

	// Traced runs step a shadow of the first lag flow at the same rate.
	var sh *shadow
	stepsPerTick := int(w.pace * w.wallTick.Seconds() / simStep.Seconds())
	if cfg.traced {
		s, err := newShadow(fx.spec, fx.opts[0], w.age, max(1, stepsPerTick), tr)
		if err != nil {
			return nil, err
		}
		sh = s
	}

	time.Sleep(w.settle)

	// The measured window.
	tr.setOn(true)
	s0 := takeSnap(fx)
	gen := &loadgen{client: newClient(), base: fx.base, tr: tr, keepBody: cfg.traced}
	lctx, lcancel := context.WithTimeout(context.Background(), cfg.window+60*time.Second)
	defer lcancel()
	var genDone sync.WaitGroup
	genDone.Add(1)
	go func() { defer genDone.Done(); gen.run(lctx, s0.at, p.requests) }()
	stopSide := make(chan struct{})
	var side sync.WaitGroup
	var peakHeap, maxGoroutines, maxQueue float64
	if cfg.traced {
		side.Add(2)
		go func() { defer side.Done(); sh.run(w.wallTick, stopSide) }()
		go func() {
			defer side.Done()
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopSide:
					return
				case <-t.C:
					rt := readRuntime()
					peakHeap = max(peakHeap, rtFloat(rt[rtHeapObjects]))
					maxGoroutines = max(maxGoroutines, rtFloat(rt[rtGoroutines]))
					maxQueue = max(maxQueue, float64(fx.plane.Stats().QueueDepth))
				}
			}
		}()
	}
	time.Sleep(time.Until(s0.at.Add(cfg.window)))
	s1 := takeSnap(fx)
	close(stopSide)
	side.Wait()
	genDone.Wait()
	tr.setOn(false)
	runtime.GC()
	liveHeap := rtFloat(readRuntime()[rtHeapLive])
	refDropped := sub.Dropped()
	closeSub()
	stopWatch()
	if err := fx.stopPacing(); err != nil {
		return nil, err
	}

	// End-to-end metrics.
	o.add("setup_s", median(setups), "s")
	var delivered, demanded float64
	for i := range fx.flows {
		delivered += float64(s1.flowSim[i] - s0.flowSim[i])
		demanded += w.pace * float64(s1.flowWall[i].Sub(s0.flowWall[i]))
	}
	o.add("pace_fidelity", delivered/demanded, "ratio")
	advances := s1.advances - s0.advances
	o.add("cpu_us_per_advance", us(s1.cpu-s0.cpu)/advances, "us")
	// Pace lag: At minus SimTime/pace per flow.advanced event, less the
	// flow's smallest such offset (in the sub-window).
	lagObs := make([]obs, len(lags))
	for i, l := range lags {
		lagObs[i] = obs{at: l.at, v: float64(l.at.UnixNano()-int64(float64(l.sim)/w.pace)) / 1e6, key: l.flow}
	}
	lagP50, lagP99 := windowedPercentiles(lagObs, s0.at, s1.at, true)
	o.add("pace_lag_p50_ms", lagP50, "ms")
	o.add("pace_lag_p99_ms", lagP99, "ms")
	o.add("heap_live_mb", liveHeap/(1<<20), "MB")

	var lat []obs
	perRoute := make(map[string][]result)
	lates := make([]float64, 0, len(gen.results))
	for _, r := range gen.results {
		if r.route == "" {
			continue // never dispatched (the run was cut short)
		}
		o.attempted++
		perRoute[r.route] = append(perRoute[r.route], r)
		lates = append(lates, ms(r.dispatched.Sub(r.due)))
		if !r.ok() {
			o.failed++
			continue
		}
		lat = append(lat, obs{at: r.due, v: ms(r.end.Sub(r.due))})
	}
	apiP50, apiP99 := windowedPercentiles(lat, s0.at, s1.at, false)
	o.add("api_p50_ms", apiP50, "ms")
	o.add("api_p99_ms", apiP99, "ms")
	o.add("api_ok_frac", float64(o.attempted-o.failed)/float64(max(1, o.attempted)), "ratio")

	var deliv []obs
	var lost, got float64
	var watchRef []uint64
	for _, ev := range wt.events {
		if ev.recv.Before(s0.at) || ev.recv.After(s1.at) {
			continue
		}
		switch ev.typ {
		case registry.EventFlowAdvanced:
			got++
			deliv = append(deliv, obs{at: ev.recv, v: ms(ev.recv.Sub(ev.at))})
		case "dropped":
			lost += float64(ev.dropped)
		}
	}
	watchP50, watchP99 := windowedPercentiles(deliv, s0.at, s1.at, false)
	o.add("watch_delivery_p50_ms", watchP50, "ms")
	o.add("watch_delivery_p99_ms", watchP99, "ms")
	o.add("watch_delivered_frac", got/math.Max(1, got+lost), "ratio")
	o.attempted += wt.connects
	o.failed += wt.failed

	// Validity: the generator must keep to its schedule.
	gap := 1000 / w.rate
	if late := quantile(lates, 0.99); late > gap {
		o.invalid = fmt.Sprintf("load generator p99 lateness %.3fms exceeds the %.3fms inter-arrival gap", late, gap)
	}

	// Correctness checks, with pacers stopped.
	client := newClient()
	for _, q := range checkQueries(fx, p.oracle[0]) {
		resp, err := postQuery(client, fx.base, q.q)
		if err != nil {
			o.fail("%s: %v", q.route, err)
			continue
		}
		want := q.ref(fx)
		if cfg.corruptReference && len(want) > 0 && len(want[0].Vs) > 0 {
			want[0].Vs[0] = math.Nextafter(want[0].Vs[0], math.Inf(1))
		}
		if err := compareAnswer(resp.Results, want); err != nil {
			o.fail("%s differs from the naive reference: %v", q.route, err)
		}
	}
	client.CloseIdleConnections()
	if err := parallel(2, func(k int) error { return checkOracle(fx, p.oracle[k]) }); err != nil {
		o.fail("deterministic-simulator oracle: %v", err)
	}
	if refDropped > 0 {
		o.fail("the reference subscriber dropped %d events", refDropped)
	}
	for _, l := range lags {
		if watchSet[l.flow] {
			watchRef = append(watchRef, l.seq)
		}
	}
	if err := checkWatch(wt.events, watchRef); err != nil {
		o.fail("watch stream: %v", err)
	}

	if !cfg.traced {
		// Latencies are printed but carry no bound (see latencies).
		kept := o.metrics[:0]
		for _, m := range o.metrics {
			if isLatency(m.name) {
				o.info = append(o.info, m)
			} else {
				kept = append(kept, m)
			}
		}
		o.metrics = kept
	} else {
		if err := layers(o, cfg, fx, tr, s0, s1, advances, perRoute, lates, wt, liveHeap, peakHeap, maxGoroutines, maxQueue); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.scratch, fmt.Sprintf("e2ebench-spans-%s-seed%d.json", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	return o, nil
}
