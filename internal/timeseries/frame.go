package timeseries

import (
	"fmt"
	"time"
)

// Frame is a set of value columns that share one time column: the
// measurements one publisher takes each tick, appended as a row of one
// timestamp and one value per column. Sharing the time column means a row
// writes one timestamp and checks one ordering, however many metrics it
// carries.
//
// Retention lives here. DropBefore advances a head offset shared by every
// column instead of copying the survivors, and compacts all columns to the
// front together once the dead prefix is at least as large as the live
// region. The head and tail timestamps are cached in the header, so the
// per-append order check and a DropBefore that drops nothing read no
// column.
type Frame struct {
	times []int64     // unix nanos, ascending; live region is [head:len]
	cols  [][]float64 // one value column per metric, each as long as times
	head  int
	// headT and lastT are times[head] and times[len-1] while the frame
	// holds a live row.
	headT, lastT int64
	// copied counts rows moved by compaction; the amortised-truncation
	// regression test reads it to assert bounded total copy work.
	copied int64
}

// compactMin is the head size below which DropBefore never compacts, so
// short frames are not shuffled for a handful of dropped rows.
const compactMin = 32

// NewFrame returns an empty frame of width value columns, each with
// capacity hint n. width must be at least 1.
func NewFrame(width, n int) *Frame {
	if width < 1 {
		panic(fmt.Sprintf("timeseries: frame width %d < 1", width))
	}
	f := &Frame{times: make([]int64, 0, n), cols: make([][]float64, width)}
	for i := range f.cols {
		f.cols[i] = make([]float64, 0, n)
	}
	return f
}

// Width reports the number of value columns.
func (f *Frame) Width() int { return len(f.cols) }

// Len reports the number of live rows.
func (f *Frame) Len() int { return len(f.times) - f.head }

// Append adds one row: the timestamp and one value per column, in column
// order. The timestamp must not precede the newest row's. On error the
// frame is unchanged.
func (f *Frame) Append(t time.Time, vs ...float64) error {
	if len(vs) != len(f.cols) {
		return fmt.Errorf("timeseries: row of %d values for a %d-column frame", len(vs), len(f.cols))
	}
	tn := t.UnixNano()
	if f.Len() == 0 {
		f.headT = tn
	} else if tn < f.lastT {
		return fmt.Errorf("timeseries: append at %v precedes last point %v", t, nanoTime(f.lastT))
	}
	f.lastT = tn
	f.times = append(f.times, tn)
	for i, v := range vs {
		f.cols[i] = append(f.cols[i], v)
	}
	return nil
}

// Last returns column col's most recent point and true, or a zero point and
// false if the frame is empty.
func (f *Frame) Last(col int) (Point, bool) {
	if f.Len() == 0 {
		return Point{}, false
	}
	vs := f.cols[col]
	return Point{T: nanoTime(f.lastT), V: vs[len(vs)-1]}, true
}

// ViewAll returns a zero-copy view of column col's live rows. It shares
// storage with f and is valid only until the next Append or DropBefore.
func (f *Frame) ViewAll(col int) View {
	return View{times: f.times[f.head:], vals: f.cols[col][f.head:]}
}

// View returns a zero-copy window over column col's points p with
// from <= p.T < to (same validity caveats as ViewAll).
func (f *Frame) View(col int, from, to time.Time) View {
	return f.ViewAll(col).Slice(from, to)
}

// DropBefore discards every row with timestamp earlier than t and reports
// how many were dropped. The cost is amortised O(1) per dropped row: the
// cutoff is found by scanning forward from the head, one comparison per
// dropped row plus one, and a cutoff at or before the cached head
// timestamp returns at once. Rows are logically dropped by advancing the
// head offset, and the surviving region is compacted to the front only
// once the dead prefix is at least as large as the live region, so the
// total copy work over the frame's lifetime is bounded by the total number
// of appends.
func (f *Frame) DropBefore(t time.Time) int {
	tn := unixNano(t)
	if f.Len() == 0 || tn <= f.headT {
		return 0
	}
	lo := f.head + 1 // times[head] < tn
	for lo < len(f.times) && f.times[lo] < tn {
		lo++
	}
	dropped := lo - f.head
	f.head = lo
	if f.head >= compactMin && 2*f.head >= len(f.times) {
		live := len(f.times) - f.head
		copy(f.times, f.times[f.head:])
		f.times = f.times[:live]
		for i, vs := range f.cols {
			copy(vs, vs[f.head:])
			f.cols[i] = vs[:live]
		}
		f.copied += int64(live)
		f.head = 0
	}
	if f.head < len(f.times) {
		f.headT = f.times[f.head]
	}
	return dropped
}

// Copied returns the lifetime count of rows moved by compaction — the
// observable cost of the amortised-truncation scheme.
func (f *Frame) Copied() int64 { return f.copied }
