package main

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/persist"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simtime"
)

// span is one timed call the benchmark made into a module: name, start,
// end and the span that caused it (0 for none).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
	on    bool // record only inside the measured window
}

func (t *tracer) setOn(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// add records a finished span and returns its id (0 when not recording).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	return t.recordLocked(name, parent, start, end)
}

// record adds a span whether or not the window is open: for spans built
// after the fact, such as probe waits.
func (t *tracer) record(name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordLocked(name, 0, start, end)
}

func (t *tracer) recordLocked(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// reserve allocates an id for a parent span whose end is not known yet;
// finish fills it in.
func (t *tracer) reserve(name string, start time.Time) int {
	return t.add(name, 0, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span name's self durations: a span's duration
// minus the part of it its children cover.
func selfTimes(spans []span) map[string][]time.Duration {
	covered := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur()-covered[s.ID])
	}
	return out
}

// timedWAL implements registry.WAL around the control log, recording a
// span per call. Untraced runs attach the control log directly.
type timedWAL struct {
	log *persist.ControlLog
	tr  *tracer
}

func (w *timedWAL) timed(name string, call func() error) error {
	start := time.Now()
	err := call()
	w.tr.add(name, 0, start, time.Now())
	return err
}

func (w *timedWAL) FlowCreated(id string, spec flow.Spec, opts sim.Options) error {
	return w.timed("persist.wal_append", func() error { return w.log.FlowCreated(id, spec, opts) })
}

func (w *timedWAL) FlowPaced(id string, pace float64, wallTick time.Duration) error {
	return w.timed("persist.wal_append", func() error { return w.log.FlowPaced(id, pace, wallTick) })
}

func (w *timedWAL) FlowTuned(id string, kind flow.LayerKind, ref, deadBand *float64, window *time.Duration) error {
	return w.timed("persist.wal_append", func() error { return w.log.FlowTuned(id, kind, ref, deadBand, window) })
}

func (w *timedWAL) FlowDeleted(id string) error {
	return w.timed("persist.wal_append", func() error { return w.log.FlowDeleted(id) })
}

// probe is a flow-class periodic job the benchmark pins to one scheduler
// shard; its fire times measure how late the shard runs flow work.
type probe struct {
	ticket   *sched.Ticket
	interval time.Duration

	mu    sync.Mutex
	fires []probeFire
}

type probeFire struct {
	at time.Time
	n  int // intervals delivered (more than 1 when catching up)
}

func (p *probe) tick(n int) error {
	now := time.Now()
	p.mu.Lock()
	p.fires = append(p.fires, probeFire{at: now, n: n})
	p.mu.Unlock()
	return nil
}

// inWindow returns the fires in [from, to].
func (p *probe) inWindow(from, to time.Time) []probeFire {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []probeFire
	for _, f := range p.fires {
		if !f.at.Before(from) && !f.at.After(to) {
			out = append(out, f)
		}
	}
	return out
}

// waits returns the fires in [from, to] and each one's lateness: its time
// minus the schedule implied by the first fire, less the smallest such
// offset (the schedule's phase is private to the scheduler).
func (p *probe) waits(from, to time.Time) ([]probeFire, []time.Duration) {
	fires := p.inWindow(from, to)
	if len(fires) == 0 {
		return nil, nil
	}
	offs := make([]time.Duration, len(fires))
	intervals := 0
	lowest := time.Duration(1<<63 - 1)
	for i, f := range fires {
		if i > 0 {
			intervals += f.n
		}
		offs[i] = f.at.Sub(fires[0].at) - time.Duration(intervals)*p.interval
		lowest = min(lowest, offs[i])
	}
	for i := range offs {
		offs[i] -= lowest
	}
	return fires, offs
}

// startProbes registers one probe per scheduler shard. It must run before
// any other periodic job is armed: a probe's shard is found from which
// shard's armed-timer count grows when it registers.
func startProbes(plane *sched.Scheduler, interval time.Duration) ([]*probe, error) {
	shards := plane.Shards()
	probes := make([]*probe, shards)
	found := 0
	for k := 0; found < shards && k < 64*shards; k++ {
		before := plane.Stats().PerShard
		p := &probe{interval: interval}
		t, err := plane.Periodic("bench/probe-"+strconv.Itoa(k), sched.ClassFlow, interval, p.tick, nil)
		if err != nil {
			return nil, err
		}
		p.ticket = t
		after := plane.Stats().PerShard
		kept := false
		for i := range after {
			if after[i].Timers > before[i].Timers && probes[i] == nil {
				probes[i], kept = p, true
				found++
				break
			}
		}
		if !kept {
			t.Stop()
		}
	}
	out := probes[:0]
	for _, p := range probes {
		if p != nil {
			out = append(out, p)
		}
	}
	return out, nil
}

// shadow is a private copy of a sampled flow: same spec, seed and age.
// The benchmark steps it through its substrates' public Tick methods, in
// the registration order sim.New uses, on its own simtime.Scheduler, and
// times each call — so the paced flows themselves are never touched. The
// harness's private accounting step is skipped; its cost stays inside
// registry.self_us.
type shadow struct {
	h     *sim.Harness
	sch   *simtime.Scheduler
	tr    *tracer
	steps int // steps per advance, as the paced flows take them
	cur   int // the advance span the substrate spans belong to
}

// newShadow builds the shadow and registers its substrates under their
// module names, in sim.New's registration order.
func newShadow(spec flow.Spec, opts sim.Options, age time.Duration, steps int, tr *tracer) (*shadow, error) {
	h, err := sim.New(spec, opts)
	if err != nil {
		return nil, err
	}
	if _, err := h.Run(age); err != nil {
		return nil, err
	}
	s := &shadow{h: h, sch: simtime.NewScheduler(h.Clock, opts.Step), tr: tr, steps: steps}
	s.register("workload.tick", h.Generator)
	s.register("compute.tick", h.Cluster)
	if h.Queries != nil {
		s.register("workload.tick", h.Queries)
	}
	s.register("stream.tick", h.Stream)
	s.register("kvstore.tick", h.Table)
	s.register("billing.tick", h.Meter)
	for _, kind := range []flow.LayerKind{flow.Ingestion, flow.Analytics, flow.Storage, flow.StorageReads} {
		if loop, ok := h.Loops[kind]; ok {
			s.register("control.tick", loop)
		}
	}
	return s, nil
}

func (s *shadow) register(name string, t simtime.Ticker) {
	s.sch.Register(simtime.TickerFunc(func(now time.Time, step time.Duration) {
		start := time.Now()
		t.Tick(now, step)
		s.tr.add(name, s.cur, start, time.Now())
	}))
}

// advance steps the shadow like one pacer tick advances its flow: the
// steps, then the cumulative result the registry publishes.
func (s *shadow) advance() {
	s.cur = s.tr.reserve("shadow.advance", time.Now())
	s.sch.RunSteps(s.steps)
	start := time.Now()
	_ = s.h.Result()
	end := time.Now()
	s.tr.add("sim.result", s.cur, start, end)
	s.tr.finish(s.cur, end)
}

// run advances the shadow every tick until stop closes.
func (s *shadow) run(tick time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.advance()
		}
	}
}
