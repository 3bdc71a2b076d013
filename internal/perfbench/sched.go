package perfbench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Pacing-throughput benchmarks: N flows paced for a fixed wall-clock
// window, measured as executed simulation steps per second and process
// goroutine count — on the unified execution plane (internal/sched via
// the registry) versus the retired goroutine-per-flow design, frozen
// below as the baseline. The goroutine column is the headline: the
// scheduler paces any number of flows with O(shards) goroutines, the
// legacy design needed one per flow.

// PaceBenchConfig sizes one pacing-throughput measurement.
type PaceBenchConfig struct {
	// Flows is how many flows pace concurrently.
	Flows int
	// Pace is simulated seconds advanced per wall second per flow;
	// WallTick is the pacer granularity.
	Pace     float64
	WallTick time.Duration
	// Wall is the wall-clock measurement window.
	Wall time.Duration
	// Shards/Workers size the scheduler (scheduler mode only; zero values
	// select the defaults).
	Shards  int
	Workers int
}

func (c PaceBenchConfig) withDefaults() PaceBenchConfig {
	if c.Flows <= 0 {
		c.Flows = 1000
	}
	if c.Pace <= 0 {
		c.Pace = 800 // four 10s sim steps per 50ms tick
	}
	if c.WallTick <= 0 {
		c.WallTick = 50 * time.Millisecond
	}
	if c.Wall <= 0 {
		c.Wall = 2 * time.Second
	}
	return c
}

// PaceBenchResult is one pacing-throughput measurement. An "advance" is
// one simulation step executed by the pacing plane — the common unit both
// designs can be measured in.
type PaceBenchResult struct {
	Name  string `json:"name"`
	Flows int    `json:"flows"`
	// Goroutines is the peak process goroutine count sampled during the
	// run: O(shards) for the scheduler, O(flows) for the legacy design.
	Goroutines     int     `json:"goroutines"`
	Advances       int     `json:"advances"`
	AdvancesPerSec float64 `json:"advances_per_sec"`
	WallSeconds    float64 `json:"wall_seconds"`
	// LateRuns / SkippedTicks are the scheduler's bounded-catch-up
	// counters (scheduler mode only; the legacy design has no equivalent
	// observability, which is part of the point).
	LateRuns     uint64 `json:"late_runs,omitempty"`
	SkippedTicks uint64 `json:"skipped_ticks,omitempty"`
}

// paceBenchSpec is the flow the pacing benchmarks advance: the
// benchSimTick wiring — three layers under adaptive control, constant
// workload — cheap enough to materialise a thousand times.
func paceBenchSpec(name string) (flow.Spec, error) {
	window := 2 * time.Minute
	return flow.NewBuilder(name).
		WithWorkload(flow.WorkloadSpec{Pattern: "constant", Base: 2000}).
		WithIngestion(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithAnalytics(2, 1, 50, flow.DefaultAdaptive(60, window, 4)).
		WithStorage(200, 50, 20000, flow.DefaultAdaptive(60, window, 400)).
		Build()
}

// sampleGoroutines polls the goroutine count until stop closes and
// reports the peak.
func sampleGoroutines(stop <-chan struct{}, out *int) {
	peak := runtime.NumGoroutine()
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			*out = peak
			return
		case <-t.C:
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
		}
	}
}

// RunSchedPaceBench paces cfg.Flows flows on the unified execution plane
// — the real registry path: Create + StartPacing — and measures executed
// sim steps over cfg.Wall.
func RunSchedPaceBench(cfg PaceBenchConfig) (PaceBenchResult, error) {
	cfg = cfg.withDefaults()
	plane := sched.New(sched.Config{Shards: cfg.Shards, Workers: cfg.Workers})
	defer plane.Close()
	reg := registry.New(registry.WithScheduler(plane))
	defer reg.Close()

	base, err := paceBenchSpec("pace")
	if err != nil {
		return PaceBenchResult{}, err
	}
	warmed := 0
	for i := 0; i < cfg.Flows; i++ {
		id := fmt.Sprintf("pace-%04d", i)
		spec := base
		spec.Name = id
		f, err := reg.Create(id, spec, sim.Options{Step: 10 * time.Second, Seed: int64(i)})
		if err != nil {
			return PaceBenchResult{}, err
		}
		// Warm the flow: its first step pays one-time lazy initialisation
		// orders of magnitude above the steady-state step cost, which
		// would otherwise be all the measurement window sees.
		if _, err := f.Advance(10 * time.Second); err != nil {
			return PaceBenchResult{}, err
		}
		warmed++
	}
	for _, f := range reg.List() {
		if err := f.StartPacing(cfg.Pace, cfg.WallTick); err != nil {
			return PaceBenchResult{}, err
		}
	}

	stop := make(chan struct{})
	var peak int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); sampleGoroutines(stop, &peak) }()
	start := time.Now()
	time.Sleep(cfg.Wall)
	reg.Close() // stop pacing before counting, so the count is stable
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	ticks := -warmed // exclude the warm-up step each flow ran
	for _, f := range reg.List() {
		f.View(func(m *core.Manager) { ticks += m.Harness().Ticks() })
	}
	st := plane.Stats()
	return PaceBenchResult{
		Name:           "pace_flows_sched",
		Flows:          cfg.Flows,
		Goroutines:     peak,
		Advances:       ticks,
		AdvancesPerSec: float64(ticks) / elapsed.Seconds(),
		WallSeconds:    elapsed.Seconds(),
		LateRuns:       st.LateRuns,
		SkippedTicks:   st.SkippedTicks,
	}, nil
}

// legacyPacer is the retired per-flow pacing design, frozen as the
// benchmark baseline: one manager behind one mutex, advanced by its own
// goroutine and time.Ticker — exactly the loop internal/registry used
// before the scheduler refactor.
type legacyPacer struct {
	mu   sync.Mutex
	mgr  *core.Manager
	stop chan struct{}
	done chan struct{}
}

func (p *legacyPacer) start(pace float64, wallTick time.Duration) {
	simStep := p.mgr.Harness().Scheduler.Step()
	perWallTick := time.Duration(pace * float64(wallTick))
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		t := time.NewTicker(wallTick)
		defer t.Stop()
		var debt time.Duration // simulated time owed but not yet advanced
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				debt += perWallTick
				if due := debt / simStep * simStep; due > 0 {
					debt -= due
					p.mu.Lock()
					_, err := p.mgr.Run(due)
					p.mu.Unlock()
					if err != nil {
						return
					}
				}
			}
		}
	}()
}

func (p *legacyPacer) halt() {
	close(p.stop)
	<-p.done
}

// RunLegacyPaceBench is RunSchedPaceBench's baseline: the same flows
// paced the pre-scheduler way, one goroutine plus ticker per flow.
func RunLegacyPaceBench(cfg PaceBenchConfig) (PaceBenchResult, error) {
	cfg = cfg.withDefaults()
	base, err := paceBenchSpec("pace")
	if err != nil {
		return PaceBenchResult{}, err
	}
	pacers := make([]*legacyPacer, cfg.Flows)
	for i := range pacers {
		spec := base
		spec.Name = fmt.Sprintf("pace-%04d", i)
		mgr, err := core.NewManager(spec, sim.Options{Step: 10 * time.Second, Seed: int64(i)})
		if err != nil {
			return PaceBenchResult{}, err
		}
		// Same warm-up as the scheduler path: pay the first step's lazy
		// initialisation outside the measurement window.
		if _, err := mgr.Run(10 * time.Second); err != nil {
			return PaceBenchResult{}, err
		}
		pacers[i] = &legacyPacer{mgr: mgr}
	}
	for _, p := range pacers {
		p.start(cfg.Pace, cfg.WallTick)
	}

	stop := make(chan struct{})
	var peak int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); sampleGoroutines(stop, &peak) }()
	start := time.Now()
	time.Sleep(cfg.Wall)
	for _, p := range pacers {
		p.halt()
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	ticks := -len(pacers) // exclude the warm-up step each flow ran
	for _, p := range pacers {
		ticks += p.mgr.Harness().Ticks()
	}
	return PaceBenchResult{
		Name:           "pace_flows_legacy",
		Flows:          cfg.Flows,
		Goroutines:     peak,
		Advances:       ticks,
		AdvancesPerSec: float64(ticks) / elapsed.Seconds(),
		WallSeconds:    elapsed.Seconds(),
	}, nil
}
