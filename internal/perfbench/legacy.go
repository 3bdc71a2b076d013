// Package perfbench holds the metric-pipeline micro-benchmarks and the
// frozen pre-columnar reference implementation they compare against.
//
// The reference (LegacyStore / LegacySeries) is a faithful copy of the
// metric pipeline as it stood before the columnar, handle-based rebuild:
// one []Point slice per series, a canonical key string rebuilt on every
// Put, retention pruning that re-copies the surviving window on each
// append, window queries that materialise a copy of the window, and
// percentile statistics that copy-and-sort per call. It exists for two
// jobs: the equivalence property tests prove the new pipeline returns
// bit-for-bit identical answers, and the benchmarks quantify the speedup
// instead of asserting it. It must not grow features — it is a measuring
// stick, not a second implementation.
package perfbench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/timeseries"
)

// LegacyPoint mirrors the pre-rebuild row-oriented point.
type LegacyPoint struct {
	T time.Time
	V float64
}

// LegacySeries is the pre-columnar row-store series.
type LegacySeries struct {
	points []LegacyPoint
}

// Append adds an observation with the old ordering check.
func (s *LegacySeries) Append(t time.Time, v float64) error {
	if n := len(s.points); n > 0 && t.Before(s.points[n-1].T) {
		return fmt.Errorf("timeseries: append at %v precedes last point %v", t, s.points[n-1].T)
	}
	s.points = append(s.points, LegacyPoint{T: t, V: v})
	return nil
}

// Len reports the number of points.
func (s *LegacySeries) Len() int { return len(s.points) }

// At returns the i-th point.
func (s *LegacySeries) At(i int) LegacyPoint { return s.points[i] }

// Last returns the newest point.
func (s *LegacySeries) Last() (LegacyPoint, bool) {
	if len(s.points) == 0 {
		return LegacyPoint{}, false
	}
	return s.points[len(s.points)-1], true
}

// Values returns a copy of the values, as the old Series.Values did.
func (s *LegacySeries) Values() []float64 {
	out := make([]float64, len(s.points))
	for i, p := range s.points {
		out[i] = p.V
	}
	return out
}

// Between returns a copied sub-series, the old windowing primitive.
func (s *LegacySeries) Between(from, to time.Time) *LegacySeries {
	lo := sort.Search(len(s.points), func(i int) bool { return !s.points[i].T.Before(from) })
	hi := sort.Search(len(s.points), func(i int) bool { return !s.points[i].T.Before(to) })
	out := &LegacySeries{points: make([]LegacyPoint, 0, hi-lo)}
	out.points = append(out.points, s.points[lo:hi]...)
	return out
}

// TailN returns a copy of the last n points.
func (s *LegacySeries) TailN(n int) *LegacySeries {
	if n > len(s.points) {
		n = len(s.points)
	}
	out := &LegacySeries{points: make([]LegacyPoint, 0, n)}
	out.points = append(out.points, s.points[len(s.points)-n:]...)
	return out
}

// legacyApply is the old Agg.Apply: copy+sort percentiles, no scratch.
func legacyApply(a timeseries.Agg, vs []float64) float64 {
	switch a {
	case timeseries.AggCount:
		return float64(len(vs))
	case timeseries.AggSum:
		return timeseries.Sum(vs)
	}
	if len(vs) == 0 {
		return math.NaN()
	}
	switch a {
	case timeseries.AggMean:
		return timeseries.Mean(vs)
	case timeseries.AggMin:
		return timeseries.Min(vs)
	case timeseries.AggMax:
		return timeseries.Max(vs)
	case timeseries.AggP50:
		return LegacyPercentile(vs, 50)
	case timeseries.AggP90:
		return LegacyPercentile(vs, 90)
	case timeseries.AggP99:
		return LegacyPercentile(vs, 99)
	default:
		return math.NaN()
	}
}

// LegacyPercentile is the old copy-and-sort-per-call percentile.
func LegacyPercentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return timeseries.Min(vs)
	}
	if p >= 100 {
		return timeseries.Max(vs)
	}
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Resample is the old bucket-slice resampler.
func (s *LegacySeries) Resample(period time.Duration, agg timeseries.Agg) *LegacySeries {
	if period <= 0 {
		panic("timeseries: resample period must be positive")
	}
	out := &LegacySeries{}
	if len(s.points) == 0 {
		return out
	}
	anchor := s.points[0].T
	var bucket []float64
	bucketIdx := 0
	flush := func() {
		if len(bucket) == 0 {
			return
		}
		out.points = append(out.points, LegacyPoint{
			T: anchor.Add(time.Duration(bucketIdx) * period),
			V: legacyApply(agg, bucket),
		})
		bucket = bucket[:0]
	}
	for _, p := range s.points {
		idx := int(p.T.Sub(anchor) / period)
		if idx != bucketIdx {
			flush()
			bucketIdx = idx
		}
		bucket = append(bucket, p.V)
	}
	flush()
	return out
}

// legacyEntry pairs the old per-metric identity with its row series.
type legacyEntry struct {
	ns, name string
	dims     map[string]string
	ts       *LegacySeries
}

// LegacyQuery mirrors the pre-rebuild store's query type.
type LegacyQuery struct {
	Namespace  string
	Name       string
	Dimensions map[string]string
	From, To   time.Time
	Period     time.Duration
	Stat       timeseries.Agg
}

// LegacyStore is the pre-rebuild metric store: one global lock, a key
// string rebuilt per operation, copy-based retention pruning.
type LegacyStore struct {
	mu        sync.RWMutex
	series    map[string]*legacyEntry
	retention time.Duration
}

// NewLegacyStore returns an empty reference store.
func NewLegacyStore() *LegacyStore {
	return &LegacyStore{series: make(map[string]*legacyEntry)}
}

// SetRetention mirrors the old lazy-on-insert pruning window.
func (s *LegacyStore) SetRetention(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retention = d
}

// legacyKey is the old MetricID.Key: fresh allocations per call.
func legacyKey(ns, name string, dims map[string]string) string {
	var b strings.Builder
	b.WriteString(ns)
	b.WriteByte('|')
	b.WriteString(name)
	b.WriteByte('|')
	keys := make([]string, 0, len(dims))
	for k := range dims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(dims[k])
	}
	return b.String()
}

// Put is the old write path: key build, global lock, append, and — once
// history exceeds the retention window — a full copy of the surviving
// points on every insert.
func (s *LegacyStore) Put(ns, name string, dims map[string]string, t time.Time, v float64) error {
	if ns == "" || name == "" {
		return fmt.Errorf("metricstore: namespace and name are required")
	}
	key := legacyKey(ns, name, dims)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.series[key]
	if !ok {
		cp := make(map[string]string, len(dims))
		for k, v := range dims {
			cp[k] = v
		}
		e = &legacyEntry{ns: ns, name: name, dims: cp, ts: &LegacySeries{points: make([]LegacyPoint, 0, 1024)}}
		s.series[key] = e
	}
	if err := e.ts.Append(t, v); err != nil {
		return fmt.Errorf("metricstore: put %s %s: %w", ns, name, err)
	}
	if s.retention > 0 {
		cutoff := t.Add(-s.retention)
		if first := e.ts.At(0).T; first.Before(cutoff) {
			e.ts = e.ts.Between(cutoff, t.Add(time.Nanosecond))
		}
	}
	return nil
}

// GetStatistics is the old read path: key build, window copy, bucket-slice
// resample.
func (s *LegacyStore) GetStatistics(q LegacyQuery) (*LegacySeries, error) {
	key := legacyKey(q.Namespace, q.Name, q.Dimensions)
	s.mu.RLock()
	e, ok := s.series[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("metricstore: no such metric %s %s", q.Namespace, q.Name)
	}
	to := q.To
	if to.IsZero() {
		if last, ok := e.ts.Last(); ok {
			to = last.T.Add(time.Nanosecond)
		}
	}
	raw := e.ts.Between(q.From, to)
	if q.Period <= 0 {
		return raw, nil
	}
	return raw.Resample(q.Period, q.Stat), nil
}

// Latest is the old newest-datapoint read.
func (s *LegacyStore) Latest(ns, name string, dims map[string]string) (LegacyPoint, bool) {
	key := legacyKey(ns, name, dims)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.series[key]
	if !ok {
		return LegacyPoint{}, false
	}
	return e.ts.Last()
}

// WindowStat replicates the old sensor measurement: GetStatistics (window
// copy), Values (second copy), then the statistic.
func (s *LegacyStore) WindowStat(q LegacyQuery) (float64, int, error) {
	series, err := s.GetStatistics(LegacyQuery{
		Namespace: q.Namespace, Name: q.Name, Dimensions: q.Dimensions,
		From: q.From, To: q.To,
	})
	if err != nil {
		return 0, 0, err
	}
	vals := series.Values()
	return legacyApply(q.Stat, vals), len(vals), nil
}
