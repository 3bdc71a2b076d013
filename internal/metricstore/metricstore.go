// Package metricstore implements the CloudWatch analogue of the
// reproduction: a namespaced repository of timestamped metrics with
// dimension filtering, period statistics, retention, and threshold alarms.
//
// Every simulated subsystem (stream, compute, kvstore, workload, billing)
// publishes its per-tick measurements here, and every Flower component
// (sensors, the dependency analyzer, the cross-platform monitor) reads them
// back — exactly the role CloudWatch plays in the paper's architecture
// (Fig. 3): "Flower's sensor module periodically collects live data from
// multiple sources such as CloudWatch".
//
// Storage is a set of frames (timeseries.Frame): value columns sharing one
// time column, each frame under one lock. Every metric is one column of a
// frame, and every read takes that frame's lock and a zero-copy view of
// the metric's column.
//
// The write API has two tiers, both interned once at build time:
//
//   - Rows. Store.Row interns a publisher's per-tick metrics as one frame
//     and returns a *Row whose Append writes one timestamp and one value
//     per metric under one lock. Every simulated substrate publishes this
//     way. A single-value append to one column of a multi-column row is
//     rejected, because it would leave the row's columns unequal.
//   - Handles. Store.Handle interns one metric as a one-column frame and
//     returns a *Handle whose Append, Latest, Stat and Window need no
//     per-call key work. A Handle to a row column (from Row.Handle,
//     Store.Handle or Lookup) reads it like any other metric.
//
// There is no map-keyed write or read call: resolving a metric by
// namespace, name and dimensions (Handle, Lookup) builds its key once,
// into a pooled scratch buffer, and the store-level lock is only ever held
// to create or look up entries, never while touching series data.
package metricstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/timeseries"
)

// MetricID identifies one metric stream: a namespace (one per simulated
// platform, e.g. "Ingestion/Stream"), a metric name, and a dimension set
// (e.g. StreamName=clicks).
type MetricID struct {
	Namespace  string
	Name       string
	Dimensions map[string]string
}

// Key returns the canonical map key for the metric: namespace, name, and
// the dimension pairs sorted by dimension name.
func (id MetricID) Key() string {
	var sc keyScratch
	return string(sc.appendKey(id.Namespace, id.Name, id.Dimensions))
}

// String renders the ID in a human-readable form for dashboards and errors.
func (id MetricID) String() string {
	key := id.Key()
	return strings.ReplaceAll(key, "|", " ")
}

// keyScratch holds the reusable buffers metric resolution builds canonical
// keys into, so a Lookup of an existing metric allocates nothing for key
// construction.
type keyScratch struct {
	buf  []byte
	keys []string
}

// appendKey renders the canonical key into the scratch buffer and returns
// it; the result is only valid until the scratch is reused.
func (sc *keyScratch) appendKey(ns, name string, dims map[string]string) []byte {
	b := append(sc.buf[:0], ns...)
	b = append(b, '|')
	b = append(b, name...)
	b = append(b, '|')
	keys := sc.keys[:0]
	for k := range dims {
		keys = append(keys, k)
	}
	// Insertion sort: dimension sets have a handful of keys at most, and
	// sort.Strings would force keys to escape.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, dims[k]...)
	}
	sc.buf = b
	sc.keys = keys
	return b
}

// Store is the metric repository. It is safe for concurrent use: entry
// creation takes the store lock, while appends and queries synchronise on
// the lock of the frame holding the metric, so writers of different frames
// never contend.
type Store struct {
	mu     sync.RWMutex
	series map[string]*entry
	alarms map[string]*Alarm

	// retention is the pruning window in nanoseconds (0 keeps everything);
	// atomic so the per-append read does not touch the store lock.
	retention atomic.Int64

	keyPool sync.Pool // *keyScratch

	// stripe is this store's stripe of the per-append telemetry counters.
	stripe int
}

// entry is one metric: a column of a frame.
type entry struct {
	id  MetricID
	f   *frame
	col int
}

// frame is the unit of storage and locking: one or more metrics as value
// columns over a shared time column. A Handle metric is a one-column
// frame; a Row is a frame of its named metrics.
type frame struct {
	mu      sync.Mutex
	fr      *timeseries.Frame
	ids     []MetricID            // column identities, in column order
	scratch timeseries.AggScratch // percentile sort buffer, guarded by mu
}

// String names the frame in errors: its metric, or a row's first metric
// and width.
func (f *frame) String() string {
	if len(f.ids) == 1 {
		return f.ids[0].String()
	}
	return fmt.Sprintf("row %s (+%d metrics)", f.ids[0], len(f.ids)-1)
}

// capacityHint presizes every frame's columns.
const capacityHint = 1024

func newFrame(ids []MetricID) *frame {
	return &frame{fr: timeseries.NewFrame(len(ids), capacityHint), ids: ids}
}

// published reports whether the metric has any datapoints yet. Handles
// and rows intern metric identities at build time, before their publisher
// has ticked; the read surface (queries, listings, lookups) treats such
// not-yet-published entries as absent.
func (e *entry) published() bool {
	e.f.mu.Lock()
	defer e.f.mu.Unlock()
	return e.f.fr.Len() > 0
}

// NewStore returns an empty store that retains all datapoints.
func NewStore() *Store {
	s := &Store{
		series: make(map[string]*entry),
		alarms: make(map[string]*Alarm),
		stripe: telAppends.Stripe(),
	}
	s.keyPool.New = func() any { return new(keyScratch) }
	return s
}

// SetRetention bounds how much history appends keep per metric; datapoints
// older than d relative to the newest datapoint of the same metric are
// dropped lazily on insert. Zero disables pruning.
func (s *Store) SetRetention(d time.Duration) {
	s.retention.Store(int64(d))
}

// Retention returns the pruning window SetRetention set (0: keep
// everything).
func (s *Store) Retention() time.Duration {
	return time.Duration(s.retention.Load())
}

// lookup finds the entry for the metric without creating it, building the
// key in pooled scratch so the steady state allocates nothing.
func (s *Store) lookup(ns, name string, dims map[string]string) *entry {
	sc := s.keyPool.Get().(*keyScratch)
	key := sc.appendKey(ns, name, dims)
	s.mu.RLock()
	e := s.series[string(key)]
	s.mu.RUnlock()
	s.keyPool.Put(sc)
	return e
}

// entryFor finds or creates the entry for the metric. Only a first-time
// creation allocates (the interned key string, a defensive copy of the
// dimension map and a one-column frame) or takes the store's write lock.
func (s *Store) entryFor(ns, name string, dims map[string]string) (*entry, error) {
	if ns == "" || name == "" {
		return nil, fmt.Errorf("metricstore: namespace and name are required")
	}
	if e := s.lookup(ns, name, dims); e != nil {
		return e, nil
	}
	id := MetricID{Namespace: ns, Name: name, Dimensions: copyDims(dims)}
	key := id.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.series[key]; ok {
		return e, nil
	}
	e := &entry{id: id, f: newFrame([]MetricID{id})}
	s.series[key] = e
	telEntries.Inc()
	return e, nil
}

// copyDims copies dims so callers can reuse their map.
func copyDims(dims map[string]string) map[string]string {
	cp := make(map[string]string, len(dims))
	for k, v := range dims {
		cp[k] = v
	}
	return cp
}

// appendOne records a single value for the metric e. It is the Handle
// path, and it refuses a column of a multi-column row: a lone value
// would leave the row's columns unequal.
func (s *Store) appendOne(e *entry, t time.Time, v float64) error {
	if w := e.f.fr.Width(); w > 1 {
		return fmt.Errorf("metricstore: put %s: the metric is a column of a %d-metric row; append through its Row", e.id, w)
	}
	return s.appendRow(e.f, t, []float64{v})
}

// appendRow records one row — a timestamp and one value per column —
// under the frame's lock: ordered append and amortised retention pruning.
// Both store counters count values.
// The telemetry at the bottom is hot-path safe: an atomic counter add,
// and trace timing only when a sampled tick trace is live (one atomic
// pointer load otherwise).
func (s *Store) appendRow(f *frame, t time.Time, vs []float64) error {
	var traceStart time.Time
	tr := telemetry.Traces.Active()
	if tr != nil {
		traceStart = telemetry.Now()
	}
	f.mu.Lock()
	if err := f.fr.Append(t, vs...); err != nil {
		f.mu.Unlock()
		return fmt.Errorf("metricstore: put %s: %w", f, err)
	}
	width := uint64(len(vs))
	if ret := s.retention.Load(); ret > 0 {
		copiedBefore := f.fr.Copied()
		if dropped := f.fr.DropBefore(t.Add(-time.Duration(ret))); dropped > 0 {
			telRetentionDropped.AddAt(s.stripe, uint64(dropped)*width)
			if d := f.fr.Copied() - copiedBefore; d > 0 {
				telCompactionCopied.Add(uint64(d) * width)
			}
		}
	}
	f.mu.Unlock()
	telAppends.AddAt(s.stripe, width)
	if tr != nil {
		tr.AddAppend(len(vs), telemetry.SinceNanos(traceStart))
	}
	return nil
}

// resolveTo implements the shared open-ended-window rule — a zero to
// means "through the newest datapoint" — for every windowed read (window,
// Handle.Stat, Handle.WindowValues). It must be called under e.f.mu.
func (e *entry) resolveTo(to time.Time) time.Time {
	if to.IsZero() {
		if last, ok := e.f.fr.Last(e.col); ok {
			return last.T.Add(time.Nanosecond)
		}
	}
	return to
}

// view is the metric's zero-copy window [from, to) under the open-ended
// rule of resolveTo. It must be called under e.f.mu.
func (e *entry) view(from, to time.Time) timeseries.View {
	return e.f.fr.View(e.col, from, e.resolveTo(to))
}

// window answers a statistics query against one entry: the raw points in
// [from, to) when period is zero, otherwise the period-bucketed statistic.
// A zero to means "through the newest datapoint".
func (s *Store) window(e *entry, from, to time.Time, period time.Duration, stat timeseries.Agg) *timeseries.Series {
	e.f.mu.Lock()
	defer e.f.mu.Unlock()
	v := e.view(from, to)
	if period <= 0 {
		return v.Materialize()
	}
	// Presize the output to the bucket count the window implies: resampling
	// can only shrink the point count, and growing the columns append by
	// append is the read path's dominant allocation source.
	buckets := v.Len()
	if v.Len() > 1 {
		if span := v.NanoAt(v.Len()-1) - v.NanoAt(0); span >= 0 {
			if n := int(span/int64(period)) + 1; n < buckets {
				buckets = n
			}
		}
	}
	return v.ResampleInto(timeseries.New(buckets), period, stat, &e.f.scratch)
}

// sortedEntries snapshots the published entry set sorted by canonical key.
func (s *Store) sortedEntries(ns string) []*entry {
	s.mu.RLock()
	keys := make([]string, 0, len(s.series))
	for k, e := range s.series {
		if ns == "" || e.id.Namespace == ns {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	entries := make([]*entry, len(keys))
	for i, k := range keys {
		entries[i] = s.series[k]
	}
	s.mu.RUnlock()
	out := entries[:0]
	for _, e := range entries {
		if e.published() {
			out = append(out, e)
		}
	}
	return out
}

// Each visits every published metric sorted by canonical key, passing a
// zero-copy view of its series taken under the metric's frame lock. The
// view is only valid during the callback; the callback must not call back
// into the store for the same metric.
func (s *Store) Each(fn func(id MetricID, v timeseries.View)) {
	for _, e := range s.sortedEntries("") {
		e.f.mu.Lock()
		fn(e.id, e.f.fr.ViewAll(e.col))
		e.f.mu.Unlock()
	}
}

// ListMetrics returns the IDs of all published metrics in the namespace
// (all namespaces if ns is empty), sorted by key for deterministic output.
func (s *Store) ListMetrics(ns string) []MetricID {
	entries := s.sortedEntries(ns)
	out := make([]MetricID, len(entries))
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

// Namespaces returns the distinct namespaces with published metrics,
// sorted.
func (s *Store) Namespaces() []string {
	set := make(map[string]bool)
	for _, e := range s.sortedEntries("") {
		set[e.id.Namespace] = true
	}
	out := make([]string, 0, len(set))
	for ns := range set {
		out = append(out, ns)
	}
	sort.Strings(out)
	return out
}
