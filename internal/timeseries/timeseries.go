// Package timeseries provides the time-series container and the descriptive
// statistics used throughout the reproduction: by the metric store to answer
// period-statistic queries, by the dependency analyzer to align layer
// measurements, and by the experiment harness to summarise runs.
//
// Storage is columnar — one int64 slice of unix-nano timestamps and one
// float64 slice of values — so window lookups are a binary search over a
// flat int64 slice. A Frame shares one time column among several value
// columns, so a publisher's per-tick row writes one timestamp, and it is
// where retention lives: pruning is an amortised-O(1) forward scan and
// head drop instead of a copy of the surviving points. Read paths that do
// not need an owned copy use View, a zero-copy window over the columns.
package timeseries

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is a single timestamped observation.
type Point struct {
	T time.Time
	V float64
}

// Series is an append-only, time-ordered sequence of points. Appending out
// of order is an error at insert time rather than a silent reorder, because
// the simulation produces observations in clock order by construction and a
// violation indicates a wiring bug.
//
// Internally the series is columnar: timestamps as unix nanoseconds and
// values as float64s.
type Series struct {
	times []int64 // unix nanos, ascending
	vals  []float64
}

// New returns an empty series with capacity hint n.
func New(n int) *Series {
	return &Series{times: make([]int64, 0, n), vals: make([]float64, 0, n)}
}

// FromValues builds a series from evenly spaced values starting at start
// with the given step. It is primarily a test and analysis convenience.
func FromValues(start time.Time, step time.Duration, values []float64) *Series {
	s := New(len(values))
	base := start.UnixNano()
	for i, v := range values {
		s.times = append(s.times, base+int64(i)*int64(step))
		s.vals = append(s.vals, v)
	}
	return s
}

// nanoTime reconstructs the time.Time for a stored nanosecond timestamp.
// The simulation clock runs in UTC, so reconstructed times render and
// compare identically to the originals.
func nanoTime(n int64) time.Time { return time.Unix(0, n).UTC() }

// unixNano converts t for storage and window comparisons. time.Time values
// outside the int64-nanosecond range (the zero Time used as an open query
// bound, or distant futures) clamp to the extremes so window selection
// still behaves as "everything before/after".
func unixNano(t time.Time) int64 {
	if y := t.Year(); y < 1679 {
		return math.MinInt64
	} else if y > 2261 {
		return math.MaxInt64
	}
	return t.UnixNano()
}

// Append adds an observation. The timestamp must not precede the last
// appended timestamp.
func (s *Series) Append(t time.Time, v float64) error {
	tn := t.UnixNano()
	if n := len(s.times); n > 0 && tn < s.times[n-1] {
		return fmt.Errorf("timeseries: append at %v precedes last point %v", t, nanoTime(s.times[n-1]))
	}
	s.times = append(s.times, tn)
	s.vals = append(s.vals, v)
	return nil
}

// MustAppend is Append for callers that control the clock and treat
// out-of-order appends as programmer error.
func (s *Series) MustAppend(t time.Time, v float64) {
	if err := s.Append(t, v); err != nil {
		panic(err)
	}
}

// Len reports the number of points.
func (s *Series) Len() int { return len(s.times) }

// At returns the i-th point.
func (s *Series) At(i int) Point {
	return Point{T: nanoTime(s.times[i]), V: s.vals[i]}
}

// Last returns the most recent point and true, or a zero point and false if
// the series is empty.
func (s *Series) Last() (Point, bool) {
	if s.Len() == 0 {
		return Point{}, false
	}
	n := len(s.times) - 1
	return Point{T: nanoTime(s.times[n]), V: s.vals[n]}, true
}

// Values returns a copy of the observation values in time order.
func (s *Series) Values() []float64 {
	out := make([]float64, s.Len())
	copy(out, s.vals)
	return out
}

// Times returns a copy of the timestamps in order.
func (s *Series) Times() []time.Time {
	out := make([]time.Time, s.Len())
	for i, n := range s.times {
		out[i] = nanoTime(n)
	}
	return out
}

// Columns exposes the series' backing columns — unix-nano timestamps and
// values — without copying. Callers must treat both slices as read-only
// and must not retain them across a mutation of s; the batch query wire
// path serializes them directly.
func (s *Series) Columns() (ts []int64, vs []float64) {
	return s.times, s.vals
}

// Reset empties the series in place, keeping its capacity for reuse.
func (s *Series) Reset() {
	s.times = s.times[:0]
	s.vals = s.vals[:0]
}

// View returns a zero-copy window over the points p with from <= p.T < to.
// The view shares storage with s: it is valid only until the next Append,
// and callers that outlive the series must Materialize it.
func (s *Series) View(from, to time.Time) View {
	return s.ViewAll().Slice(from, to)
}

// ViewAll returns a zero-copy view of the whole series (same validity
// caveats as View).
func (s *Series) ViewAll() View {
	return View{times: s.times, vals: s.vals}
}

// Between returns the sub-series of points p with from <= p.T < to. The
// returned series shares no storage with s.
func (s *Series) Between(from, to time.Time) *Series {
	return s.View(from, to).Materialize()
}

// TailN returns a copy of the last n points (or all of them if fewer).
func (s *Series) TailN(n int) *Series {
	if n > s.Len() {
		n = s.Len()
	}
	lo := len(s.times) - n
	return View{times: s.times[lo:], vals: s.vals[lo:]}.Materialize()
}

// Agg identifies an aggregation function for Resample and period statistics.
type Agg int

// Supported aggregations.
const (
	AggMean Agg = iota
	AggSum
	AggMin
	AggMax
	AggCount
	AggP50
	AggP90
	AggP99
)

// String returns the CloudWatch-style statistic name.
func (a Agg) String() string {
	switch a {
	case AggMean:
		return "Average"
	case AggSum:
		return "Sum"
	case AggMin:
		return "Minimum"
	case AggMax:
		return "Maximum"
	case AggCount:
		return "SampleCount"
	case AggP50:
		return "p50"
	case AggP90:
		return "p90"
	case AggP99:
		return "p99"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// percentile reports whether the aggregation needs a sorted bucket.
func (a Agg) percentile() (p float64, ok bool) {
	switch a {
	case AggP50:
		return 50, true
	case AggP90:
		return 90, true
	case AggP99:
		return 99, true
	}
	return 0, false
}

// Apply computes the aggregation over vs. It returns NaN for an empty input
// except AggCount and AggSum, which are 0.
func (a Agg) Apply(vs []float64) float64 { return a.ApplyWith(vs, nil) }

// ApplyWith is Apply with a reusable scratch buffer: percentile
// aggregations sort a copy of vs into sc instead of allocating a fresh
// slice per call. A nil sc falls back to a one-shot allocation.
func (a Agg) ApplyWith(vs []float64, sc *AggScratch) float64 {
	switch a {
	case AggCount:
		return float64(len(vs))
	case AggSum:
		return Sum(vs)
	}
	if len(vs) == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		return Mean(vs)
	case AggMin:
		return Min(vs)
	case AggMax:
		return Max(vs)
	case AggP50, AggP90, AggP99:
		p, _ := a.percentile()
		return sc.percentile(vs, p)
	default:
		return math.NaN()
	}
}

// Resample buckets the series into consecutive windows of length period
// anchored at the first point's timestamp and aggregates each bucket. Empty
// buckets are skipped. The resulting point carries the bucket start time.
func (s *Series) Resample(period time.Duration, agg Agg) *Series {
	return s.ViewAll().Resample(period, agg)
}

// EWMA returns the exponentially weighted moving average of the series with
// smoothing factor alpha in (0, 1]; larger alpha weights recent points more.
func (s *Series) EWMA(alpha float64) *Series {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("timeseries: EWMA alpha %v out of (0,1]", alpha))
	}
	out := New(s.Len())
	var acc float64
	for i, n := range s.times {
		v := s.vals[i]
		if i == 0 {
			acc = v
		} else {
			acc = alpha*v + (1-alpha)*acc
		}
		out.times = append(out.times, n)
		out.vals = append(out.vals, acc)
	}
	return out
}

// Mean returns the arithmetic mean of vs, or NaN if empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	return Sum(vs) / float64(len(vs))
}

// Sum returns the sum of vs (0 for empty input).
func Sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// Min returns the smallest value, or NaN if empty.
func Min(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value, or NaN if empty.
func Max(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Variance returns the population variance of vs, or NaN for fewer than one
// point.
func Variance(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	mu := Mean(vs)
	var ss float64
	for _, v := range vs {
		d := v - mu
		ss += d * d
	}
	return ss / float64(len(vs))
}

// StdDev returns the population standard deviation of vs.
func StdDev(vs []float64) float64 { return math.Sqrt(Variance(vs)) }

// Percentile returns the p-th percentile (0..100) of vs using linear
// interpolation between closest ranks. It copies vs before sorting.
func Percentile(vs []float64, p float64) float64 {
	return (*AggScratch)(nil).percentile(vs, p)
}

// AggScratch is a reusable sort buffer for percentile aggregations. The
// zero value is ready to use; it grows to the largest bucket it has seen
// and is reused across calls, so steady-state percentile queries allocate
// nothing. It is not safe for concurrent use.
type AggScratch struct {
	buf []float64
}

// percentile computes the p-th percentile of vs, sorting a copy held in the
// scratch buffer (or a throwaway slice when sc is nil).
func (sc *AggScratch) percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return Min(vs)
	}
	if p >= 100 {
		return Max(vs)
	}
	var sorted []float64
	if sc == nil {
		sorted = make([]float64, len(vs))
	} else {
		if cap(sc.buf) < len(vs) {
			sc.buf = make([]float64, len(vs))
		}
		sorted = sc.buf[:len(vs)]
	}
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

// Correlation returns the Pearson correlation coefficient between x and y,
// which must have equal length. It returns NaN when either input has zero
// variance or fewer than two points.
func Correlation(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("timeseries: correlation length mismatch %d vs %d", len(x), len(y)))
	}
	n := len(x)
	if n < 2 {
		return math.NaN()
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// AlignedValues trims x and y to their overlapping time range, resamples both
// onto period buckets with the mean aggregate, and returns equal-length value
// slices ready for Correlation or regression. It returns nil slices when the
// series do not overlap.
func AlignedValues(x, y *Series, period time.Duration) (xs, ys []float64) {
	if x.Len() == 0 || y.Len() == 0 {
		return nil, nil
	}
	from := maxTime(x.At(0).T, y.At(0).T)
	to := minTime(x.At(x.Len()-1).T, y.At(y.Len()-1).T).Add(time.Nanosecond)
	xr := x.View(from, to).Resample(period, AggMean)
	yr := y.View(from, to).Resample(period, AggMean)
	n := xr.Len()
	if yr.Len() < n {
		n = yr.Len()
	}
	if n == 0 {
		return nil, nil
	}
	return xr.TailN(n).Values(), yr.TailN(n).Values()
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
