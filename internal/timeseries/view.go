package timeseries

import (
	"math"
	"time"
)

// View is a zero-copy window over a time column and one value column of a
// Series or Frame. It shares storage with the container it was taken from
// and is valid only until that container is next mutated (Append,
// DropBefore, Reset); the metric store therefore only exposes views under
// the owning frame's lock. A View is a value — slicing
// and passing it copies two slice headers, never the data.
type View struct {
	times []int64
	vals  []float64
}

// Len reports the number of points in the view.
func (v View) Len() int { return len(v.times) }

// At returns the i-th point.
func (v View) At(i int) Point { return Point{T: nanoTime(v.times[i]), V: v.vals[i]} }

// NanoAt returns the i-th timestamp in unix nanoseconds without
// reconstructing a time.Time.
func (v View) NanoAt(i int) int64 { return v.times[i] }

// ValueAt returns the i-th value.
func (v View) ValueAt(i int) float64 { return v.vals[i] }

// Last returns the most recent point and true, or a zero point and false
// for an empty view.
func (v View) Last() (Point, bool) {
	if len(v.times) == 0 {
		return Point{}, false
	}
	return v.At(len(v.times) - 1), true
}

// Values exposes the underlying value column. The slice is shared with the
// series — callers must treat it as read-only and must not retain it past
// the view's validity window; use CopyValues or Materialize for an owned
// copy.
func (v View) Values() []float64 { return v.vals }

// CopyValues appends the view's values to dst and returns the extended
// slice, so a caller-held buffer is reused across windows.
func (v View) CopyValues(dst []float64) []float64 { return append(dst, v.vals...) }

// CopyColumns appends the view's raw columns to ts and vs and returns the
// extended slices — the allocation-light export path used by snapshots.
func (v View) CopyColumns(ts []int64, vs []float64) ([]int64, []float64) {
	return append(ts, v.times...), append(vs, v.vals...)
}

// Slice narrows the view to points p with from <= p.T < to by binary
// search, still without copying.
func (v View) Slice(from, to time.Time) View {
	lo := searchNanos(v.times, unixNano(from))
	hi := searchNanos(v.times, unixNano(to))
	if hi < lo { // inverted window selects nothing
		hi = lo
	}
	return View{times: v.times[lo:hi], vals: v.vals[lo:hi]}
}

func searchNanos(times []int64, tn int64) int {
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < tn {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Materialize copies the view into an independent Series.
func (v View) Materialize() *Series {
	s := New(len(v.times))
	s.times = append(s.times, v.times...)
	s.vals = append(s.vals, v.vals...)
	return s
}

// Aggregate computes the statistic over the view's values in one pass,
// allocation-free for the streaming aggregations; percentiles sort into sc
// (nil sc allocates a throwaway buffer). Semantics match Agg.Apply: NaN for
// an empty view except AggCount and AggSum, which are 0.
func (v View) Aggregate(a Agg, sc *AggScratch) float64 {
	return a.ApplyWith(v.vals, sc)
}

// bucketAcc accumulates one resample bucket without materialising it, for
// the streaming (non-percentile) aggregations.
type bucketAcc struct {
	n        int
	sum      float64
	min, max float64
}

func (b *bucketAcc) add(v float64) {
	if b.n == 0 {
		b.min, b.max = v, v
	} else {
		if v < b.min {
			b.min = v
		}
		if v > b.max {
			b.max = v
		}
	}
	b.n++
	b.sum += v
}

func (b *bucketAcc) result(a Agg) float64 {
	switch a {
	case AggCount:
		return float64(b.n)
	case AggSum:
		return b.sum
	}
	if b.n == 0 {
		return math.NaN()
	}
	switch a {
	case AggMean:
		return b.sum / float64(b.n)
	case AggMin:
		return b.min
	case AggMax:
		return b.max
	default:
		return math.NaN()
	}
}

// Resample buckets the view into consecutive windows of length period
// anchored at the first point's timestamp and aggregates each bucket,
// skipping empty buckets; the resulting point carries the bucket start
// time. It allocates only the output series.
func (v View) Resample(period time.Duration, agg Agg) *Series {
	return v.ResampleInto(New(0), period, agg, nil)
}

// ResampleInto is Resample writing into dst (which is Reset first and
// returned), with sc reused for percentile buckets — the allocation-free
// aggregation path for callers that hold both across queries. The
// streaming aggregations (mean, sum, min, max, count) never touch sc;
// percentile buckets are gathered into sc and sorted in place.
func (v View) ResampleInto(dst *Series, period time.Duration, agg Agg, sc *AggScratch) *Series {
	if period <= 0 {
		panic("timeseries: resample period must be positive")
	}
	dst.Reset()
	if len(v.times) == 0 {
		return dst
	}
	p, isPct := agg.percentile()
	anchor := v.times[0]
	per := int64(period)
	bucketIdx := int64(0)
	var acc bucketAcc
	start := 0 // first index of the current bucket (percentile path)
	flushAt := func(i int) {
		if isPct {
			if i == start {
				return
			}
			dst.times = append(dst.times, anchor+bucketIdx*per)
			dst.vals = append(dst.vals, sc.percentile(v.vals[start:i], p))
			start = i
			return
		}
		if acc.n == 0 {
			return
		}
		dst.times = append(dst.times, anchor+bucketIdx*per)
		dst.vals = append(dst.vals, acc.result(agg))
		acc = bucketAcc{}
	}
	for i, tn := range v.times {
		idx := (tn - anchor) / per
		if idx != bucketIdx {
			flushAt(i)
			bucketIdx = idx
		}
		if !isPct {
			acc.add(v.vals[i])
		}
	}
	flushAt(len(v.times))
	return dst
}
