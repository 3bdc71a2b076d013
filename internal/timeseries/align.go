package timeseries

import "time"

// Bucket alignment for cross-series joins. Resample anchors buckets at a
// view's first point, which is right for single-series statistics but
// useless for joining two series: each side's anchor differs, so "the
// 10:00:00–10:00:10 bucket" is not the same interval on both sides. Align
// anchors buckets at the unix epoch instead — bucket k covers
// [k*period, (k+1)*period) — so any two series bucketed at the same period
// agree on bucket boundaries and can be merge-joined on bucket start
// times. The query engine's resample operator and join operator are built
// on it.

// floorDivInt64 is floor(a/b) for b > 0 — ordinary Go division truncates
// toward zero, which would shift pre-1970 timestamps into the wrong
// bucket.
func floorDivInt64(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// BucketStart returns the epoch-aligned start (unix nanoseconds) of the
// period bucket containing the unix-nano timestamp tn.
func BucketStart(tn int64, period time.Duration) int64 {
	if period <= 0 {
		panic("timeseries: align period must be positive")
	}
	return floorDivInt64(tn, int64(period)) * int64(period)
}

// AlignIter walks a view's epoch-aligned period buckets in time order,
// yielding each non-empty bucket as a zero-copy sub-view. It shares the
// view's storage and validity window (use it only under the owning
// frame's lock, like the view itself) and allocates nothing.
type AlignIter struct {
	v   View
	per int64
	i   int // index of the first point not yet yielded
}

// Align returns an iterator over v's non-empty epoch-aligned buckets of
// length period. Points are assumed time-ordered (the store guarantees
// it), so each bucket is a contiguous sub-view.
func (v View) Align(period time.Duration) AlignIter {
	if period <= 0 {
		panic("timeseries: align period must be positive")
	}
	return AlignIter{v: v, per: int64(period)}
}

// Next returns the next non-empty bucket: its epoch-aligned start time in
// unix nanoseconds and the zero-copy sub-view of its points. ok is false
// when the view is exhausted.
func (it *AlignIter) Next() (start int64, sub View, ok bool) {
	n := it.v.Len()
	if it.i >= n {
		return 0, View{}, false
	}
	bucket := floorDivInt64(it.v.times[it.i], it.per)
	j := it.i + 1
	for j < n && floorDivInt64(it.v.times[j], it.per) == bucket {
		j++
	}
	sub = View{times: it.v.times[it.i:j], vals: it.v.vals[it.i:j]}
	it.i = j
	return bucket * it.per, sub, true
}
