// Package telemetry is the control plane's self-metrics layer: a
// zero-dependency, allocation-conscious registry of counters, gauges and
// fixed-bucket histograms that every subsystem of the elasticity manager
// (httpapi, sched, eventbus, metricstore, registry, lab, persist)
// instruments itself with, plus a sampled per-tick tracer that follows one
// flow advance from scheduler fire to SSE delivery.
//
// The design constraints come from where the instruments sit:
//
//   - Hot-path writes are single atomic operations. Handle.Append must stay
//     at 0 allocs/op with its counter increment in place, and the
//     scheduler's per-execution accounting must cost a few nanoseconds —
//     so Counter.Inc, Gauge.Add and Histogram.Observe never lock, never
//     allocate, and never touch a map.
//   - Instruments are process-wide aggregates. A labeled family
//     (CounterVec) resolves each label combination to an interned child
//     once; steady-state lookups with an existing key do not allocate, and
//     callers on per-request paths cache the child.
//   - Exposition is pull-based and cold: Snapshot materialises the whole
//     registry (that path may allocate freely), and the snapshot renders as
//     JSON wire structs (api/v1) or Prometheus text (WriteProm).
//
// The package deliberately owns the wall clock for the rest of the
// instrumented code: Now and SinceNanos wrap time.Now so tick-driven
// packages can measure real durations without importing the banned
// time.Now themselves (the flowervet wallclock analyzer exempts
// internal/telemetry — measuring real time is this package's purpose).
//
// One process-wide registry, Default(), backs every built-in instrument;
// isolated registries can be built with NewRegistry for tests.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is a metric family's type.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing counter. The zero value is ready
// to use; all methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// stripeCount is how many stripes a StripedCounter spreads its count
// over. Writers take stripes round-robin, so with more stripes than cores
// two writers that run at once rarely share one.
const stripeCount = 32

// counterStripe fills a 64-byte cache line, so stripes never share one.
type counterStripe struct {
	v atomic.Uint64
	_ [56]byte
}

// StripedCounter is a counter for a write path shared by many independent
// writers, such as every metric store's append path: its count is spread
// over cache-line-padded stripes, so writers on different stripes never
// bounce one cache line between cores. A writer takes a stripe once
// (Stripe) and adds through it (AddAt); Value sums the stripes, so reads
// stay exact. The zero value is ready to use; all methods are safe for
// concurrent use and allocation-free.
type StripedCounter struct {
	stripes [stripeCount]counterStripe
	next    atomic.Uint32
}

// Stripe assigns the caller a stripe, round-robin, to pass to AddAt.
func (c *StripedCounter) Stripe() int {
	return int((c.next.Add(1) - 1) % stripeCount)
}

// AddAt adds n on the given stripe (a Stripe result).
func (c *StripedCounter) AddAt(stripe int, n uint64) {
	c.stripes[stripe%stripeCount].v.Add(n)
}

// Value returns the count summed over every stripe.
func (c *StripedCounter) Value() uint64 {
	var n uint64
	for i := range c.stripes {
		n += c.stripes[i].v.Load()
	}
	return n
}

// Gauge is an integer gauge (a level, not a rate). The zero value is
// ready to use; all methods are allocation-free.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket duration distribution: counts[i] observations
// were at most bounds[i], with one extra overflow bucket. Observations are
// lock-free atomic increments; bounds are immutable after construction.
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	b := append([]time.Duration(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Merge folds a locally-accumulated distribution into the histogram in a
// handful of atomic adds: counts must align with the histogram's buckets
// (len(bounds)+1 entries, the last being overflow). Hot loops that execute
// work in batches accumulate per-bucket counts on the stack and flush once
// per batch through Merge instead of paying one Observe per item.
func (h *Histogram) Merge(counts []uint64, sum, max time.Duration) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("telemetry: Merge with %d buckets into a %d-bucket histogram", len(counts), len(h.counts)))
	}
	var total uint64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		h.counts[i].Add(n)
		total += n
	}
	if total == 0 {
		return
	}
	h.count.Add(total)
	h.sum.Add(int64(sum))
	for {
		cur := h.max.Load()
		if int64(max) <= cur || h.max.CompareAndSwap(cur, int64(max)) {
			return
		}
	}
}

// snapshot freezes the histogram's state.
func (h *Histogram) snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Bounds: h.bounds, // immutable, shared
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.SumNanos = h.sum.Load()
	s.MaxNanos = h.max.Load()
	return s
}

// DefLatencyBounds is the default histogram bucket ladder for request and
// flush latencies: 100µs to 10s, roughly 1-2.5-5 per decade.
var DefLatencyBounds = []time.Duration{
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	time.Second, 2500 * time.Millisecond, 5 * time.Second, 10 * time.Second,
}

// family is one named metric family: a fixed kind, label names, and the
// interned children per label-value combination.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []time.Duration // histogram families only

	mu       sync.RWMutex
	order    []*child
	byKey    map[string]*child
	gaugeFns []func() int64 // callback gauges, appended after static children
}

// child is one metric of a family (one label-value combination).
type child struct {
	labelVals []string
	counter   *Counter
	striped   *StripedCounter // instead of counter, for StripedCounter families
	gauge     *Gauge
	hist      *Histogram
}

// get interns the child for the given label values, creating it on first
// use. The key is the label values joined with 0x1f; a steady-state lookup
// of an existing child performs no allocation (map lookup via string([]byte)
// does not escape).
func (f *family) get(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: family %s has %d labels, got %d values", f.name, len(f.labels), len(vals)))
	}
	var scratch [128]byte
	key := scratch[:0]
	for i, v := range vals {
		if i > 0 {
			key = append(key, 0x1f)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	c := f.byKey[string(key)]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.byKey[string(key)]; c != nil {
		return c
	}
	c = &child{labelVals: append([]string(nil), vals...)}
	switch f.kind {
	case KindCounter:
		c.counter = &Counter{}
	case KindGauge:
		c.gauge = &Gauge{}
	case KindHistogram:
		c.hist = newHistogram(f.bounds)
	}
	f.byKey[string(key)] = c
	f.order = append(f.order, c)
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, interning it on
// first use. Cache the result on per-tick paths.
func (v *CounterVec) With(labelValues ...string) *Counter { return v.f.get(labelValues).counter }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge { return v.f.get(labelValues).gauge }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram { return v.f.get(labelValues).hist }

// Registry is a set of named metric families. Families are get-or-create:
// asking twice for the same name returns the same family, and asking with
// a conflicting kind or label set panics (a wiring bug, not a runtime
// condition).
type Registry struct {
	mu       sync.RWMutex
	order    []*family
	families map[string]*family
}

// NewRegistry returns an empty registry. Most code should use Default.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry every built-in instrument
// registers against.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry: the one flowerd exposes at
// /v1/telemetry and every internal package instruments itself against.
func Default() *Registry { return defaultRegistry }

// familyFor interns a family, validating kind and labels on re-use.
func (r *Registry) familyFor(name, help string, kind Kind, labels []string, bounds []time.Duration) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{
				name: name, help: help, kind: kind,
				labels: append([]string(nil), labels...),
				bounds: append([]time.Duration(nil), bounds...),
				byKey:  make(map[string]*child),
			}
			r.families[name] = f
			r.order = append(r.order, f)
		}
		r.mu.Unlock()
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("telemetry: family %s re-registered as %s with %d labels (was %s with %d)",
			name, kind, len(labels), f.kind, len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("telemetry: family %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
		}
	}
	return f
}

// Counter returns the registry's unlabeled counter with the given name,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	c := r.familyFor(name, help, KindCounter, nil, nil).get(nil)
	if c.counter == nil {
		panic(fmt.Sprintf("telemetry: counter %s already registered as striped", name))
	}
	return c.counter
}

// StripedCounter returns the registry's unlabeled striped counter with the
// given name, creating it on first use. It exposes as a plain counter.
func (r *Registry) StripedCounter(name, help string) *StripedCounter {
	f := r.familyFor(name, help, KindCounter, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	// An unlabeled family's only child has the empty key (see get).
	if c := f.byKey[""]; c != nil {
		if c.striped == nil {
			panic(fmt.Sprintf("telemetry: counter %s already registered as plain", name))
		}
		return c.striped
	}
	c := &child{striped: new(StripedCounter)}
	f.byKey[""] = c
	f.order = append(f.order, c)
	return c.striped
}

// CounterVec returns the labeled counter family with the given name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.familyFor(name, help, KindCounter, labels, nil)}
}

// Gauge returns the unlabeled gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.familyFor(name, help, KindGauge, nil, nil).get(nil).gauge
}

// GaugeVec returns the labeled gauge family with the given name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.familyFor(name, help, KindGauge, labels, nil)}
}

// GaugeFunc registers a callback gauge: fn is evaluated at snapshot time.
// Multiple registrations under one name sum — additive gauges let several
// instances (e.g. schedulers) contribute to one plane-wide level.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	f := r.familyFor(name, help, KindGauge, nil, nil)
	f.mu.Lock()
	f.gaugeFns = append(f.gaugeFns, fn)
	f.mu.Unlock()
}

// Histogram returns the unlabeled histogram with the given name; bounds
// apply on first registration only (nil selects DefLatencyBounds).
func (r *Registry) Histogram(name, help string, bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBounds
	}
	return r.familyFor(name, help, KindHistogram, nil, bounds).get(nil).hist
}

// HistogramVec returns the labeled histogram family with the given name.
func (r *Registry) HistogramVec(name, help string, bounds []time.Duration, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBounds
	}
	return &HistogramVec{r.familyFor(name, help, KindHistogram, labels, bounds)}
}

// Snapshot is a frozen view of a whole registry.
type Snapshot struct {
	At       time.Time
	Families []FamilySnapshot
}

// FamilySnapshot is one family's frozen view.
type FamilySnapshot struct {
	Name    string
	Help    string
	Kind    Kind
	Labels  []string
	Metrics []MetricSnapshot
}

// MetricSnapshot is one metric's frozen view: Value for counters and
// gauges, Histogram for histograms.
type MetricSnapshot struct {
	LabelValues []string
	Value       float64
	Histogram   *HistogramSnapshot
}

// HistogramSnapshot is a frozen distribution. Bounds is shared and must
// not be mutated.
type HistogramSnapshot struct {
	Bounds   []time.Duration
	Counts   []uint64 // len(Bounds)+1; last is overflow
	Count    uint64
	SumNanos int64
	MaxNanos int64
}

// Mean returns the average observation (0 with no samples).
func (h *HistogramSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.SumNanos / int64(h.Count))
}

// Snapshot materialises every family sorted by name. Families are locked
// one at a time: the snapshot is per-family consistent, which is all
// exposition needs. This is the cold path — it allocates freely.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{At: time.Now()}
	r.mu.RLock()
	fams := append([]*family(nil), r.order...)
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Labels: f.labels}
		f.mu.RLock()
		children := append([]*child(nil), f.order...)
		fns := append([]func() int64(nil), f.gaugeFns...)
		f.mu.RUnlock()
		for _, c := range children {
			m := MetricSnapshot{LabelValues: c.labelVals}
			switch f.kind {
			case KindCounter:
				if c.striped != nil {
					m.Value = float64(c.striped.Value())
				} else {
					m.Value = float64(c.counter.Value())
				}
			case KindGauge:
				m.Value = float64(c.gauge.Value())
			case KindHistogram:
				m.Histogram = c.hist.snapshot()
			}
			fs.Metrics = append(fs.Metrics, m)
		}
		if len(fns) > 0 {
			var sum int64
			for _, fn := range fns {
				sum += fn()
			}
			// Callback gauges fold into one unlabeled row, summed with any
			// static child so a family can mix both.
			if len(fs.Metrics) == 1 && len(f.labels) == 0 {
				fs.Metrics[0].Value += float64(sum)
			} else {
				fs.Metrics = append(fs.Metrics, MetricSnapshot{Value: float64(sum)})
			}
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Find returns the family snapshot with the given name (nil when absent) —
// a convenience for tests and the self-scrape bridge.
func (s Snapshot) Find(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Now returns the wall clock. It exists so instrumented tick-driven
// packages (metricstore, persist) can measure real durations without
// calling time.Now themselves, which the flowervet wallclock analyzer
// bans outside this package and the other wall-time owners.
func Now() time.Time {
	return time.Now()
}

// SinceNanos returns the nanoseconds elapsed since start (a Now result).
func SinceNanos(start time.Time) int64 {
	return int64(time.Since(start))
}
