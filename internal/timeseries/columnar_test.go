package timeseries

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

var columnarEpoch = time.Date(2017, time.August, 28, 0, 0, 0, 0, time.UTC)

// maxFrameWidth bounds the column counts the frame tests cover: from a
// one-column frame (a single metric) up to the widest publisher row.
const maxFrameWidth = 9

// frameRow is row i of a width-column test frame: column c holds
// 1000*c + i, so a misplaced column shows.
func frameRow(width, i int) []float64 {
	vs := make([]float64, width)
	for c := range vs {
		vs[c] = float64(1000*c + i)
	}
	return vs
}

// TestDropBeforeSemantics: DropBefore removes exactly the rows older than
// the cutoff from every column and leaves index-based access consistent.
func TestDropBeforeSemantics(t *testing.T) {
	for width := 1; width <= maxFrameWidth; width++ {
		f := NewFrame(width, 0)
		for i := 0; i < 100; i++ {
			if err := f.Append(columnarEpoch.Add(time.Duration(i)*time.Second), frameRow(width, i)...); err != nil {
				t.Fatal(err)
			}
		}
		cutoff := columnarEpoch.Add(40 * time.Second)
		if dropped := f.DropBefore(cutoff); dropped != 40 {
			t.Fatalf("width %d: dropped %d, want 40", width, dropped)
		}
		if f.Len() != 60 {
			t.Fatalf("width %d: len %d, want 60", width, f.Len())
		}
		for c := 0; c < width; c++ {
			v := f.ViewAll(c)
			if v.Len() != 60 {
				t.Fatalf("width %d col %d: view len %d, want 60", width, c, v.Len())
			}
			if got := v.At(0); !got.T.Equal(cutoff) || got.V != float64(1000*c+40) {
				t.Fatalf("width %d col %d: At(0) = %v/%v, want %v/%d", width, c, got.T, got.V, cutoff, 1000*c+40)
			}
			if last, _ := f.Last(c); last.V != float64(1000*c+99) {
				t.Fatalf("width %d col %d: last %v, want %d", width, c, last.V, 1000*c+99)
			}
		}
		// A second drop with an older cutoff is a no-op.
		if dropped := f.DropBefore(cutoff.Add(-time.Minute)); dropped != 0 {
			t.Fatalf("width %d: re-drop dropped %d, want 0", width, dropped)
		}
		// Appends after a drop continue every column.
		if err := f.Append(columnarEpoch.Add(200*time.Second), frameRow(width, 200)...); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < width; c++ {
			if last, _ := f.Last(c); last.V != float64(1000*c+200) {
				t.Fatalf("width %d col %d: append after drop: last %v, want %d", width, c, last.V, 1000*c+200)
			}
		}
	}
}

// TestDropBeforeAmortisedCopyWork is the retention-pruning regression
// test: a sliding-window workload (append one, drop expired) over n
// appends must do at most O(n) total copy work, where the pre-rebuild
// implementation re-copied the whole surviving window on every insert
// (O(n·w)). The compaction counter measures rows physically moved.
func TestDropBeforeAmortisedCopyWork(t *testing.T) {
	const n = 50_000
	const window = 1000 * time.Second
	for width := 1; width <= maxFrameWidth; width++ {
		f := NewFrame(width, 0)
		row := frameRow(width, 0)
		for i := 0; i < n; i++ {
			now := columnarEpoch.Add(time.Duration(i) * time.Second)
			if err := f.Append(now, row...); err != nil {
				t.Fatal(err)
			}
			f.DropBefore(now.Add(-window))
		}
		if copied := f.Copied(); copied > int64(2*n) {
			t.Fatalf("width %d: compaction copied %d rows over %d appends; amortised bound is %d", width, copied, n, 2*n)
		}
		// Sanity: the window is actually being enforced.
		if got := f.Len(); got != 1001 {
			t.Fatalf("width %d: window holds %d rows, want 1001", width, got)
		}
		// And compaction does trigger (head returns to a bounded offset).
		if h := Head(f); h >= f.Len() {
			t.Fatalf("width %d: head %d grew past live region %d — compaction never ran", width, h, f.Len())
		}
	}
}

// binarySearchDropBefore is DropBefore without the forward scan or the
// cached head timestamp: a binary search for the cutoff over the live
// region, then the same head advance and compaction. It is the oracle for
// the scan.
func binarySearchDropBefore(f *Frame, t time.Time) int {
	lo := f.head + sort.Search(len(f.times)-f.head, func(i int) bool { return f.times[f.head+i] >= unixNano(t) })
	dropped := lo - f.head
	if dropped <= 0 {
		return 0
	}
	f.head = lo
	if f.head >= compactMin && 2*f.head >= len(f.times) {
		live := len(f.times) - f.head
		copy(f.times, f.times[f.head:])
		f.times = f.times[:live]
		for i := range f.cols {
			copy(f.cols[i], f.cols[i][f.head:])
			f.cols[i] = f.cols[i][:live]
		}
		f.copied += int64(live)
		f.head = 0
	}
	return dropped
}

// randomCut picks a retention cutoff for a non-empty frame: before the
// head, at the head, inside the column, at the tail or beyond it.
func randomCut(rng *rand.Rand, first, tail int64) int64 {
	switch rng.Intn(5) {
	case 0: // before the head
		return first - int64(rng.Intn(5)+1)*int64(time.Second)
	case 1: // exactly the head
		return first
	case 2: // inside the column
		return first + rng.Int63n(tail-first+1)
	case 3: // at the tail
		return tail
	default: // beyond the tail
		return tail + int64(rng.Intn(5)+1)*int64(time.Second)
	}
}

// TestDropBeforeMatchesBinarySearch drives random frames of 1 to 9
// columns — repeated timestamps included — through a random sequence of
// appends and drops, with cutoffs before the head, inside the column, at
// the tail and beyond it, and requires the forward scan to leave exactly
// the state the binary search leaves, with the cached head timestamp
// equal to the head row's.
func TestDropBeforeMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		width := 1 + trial%maxFrameWidth
		got, want := NewFrame(width, 0), NewFrame(width, 0)
		var last int64
		for op := 0; op < 200; op++ {
			if rng.Intn(3) > 0 || got.Len() == 0 {
				for n := rng.Intn(40); n >= 0; n-- {
					last += int64(rng.Intn(3)) * int64(time.Second) // 0: a repeated timestamp
					row := frameRow(width, op)
					if err := got.Append(nanoTime(last), row...); err != nil {
						t.Fatal(err)
					}
					if err := want.Append(nanoTime(last), row...); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			cut := randomCut(rng, got.times[got.head], got.times[len(got.times)-1])
			beforeHead, beforeLen := got.head, len(got.times)
			gd, wd := got.DropBefore(nanoTime(cut)), binarySearchDropBefore(want, nanoTime(cut))
			same := gd == wd && got.head == want.head && got.copied == want.copied &&
				slices.Equal(got.times, want.times)
			for c := 0; same && c < width; c++ {
				same = slices.Equal(got.cols[c], want.cols[c])
			}
			if !same {
				t.Fatalf("trial %d (width %d): DropBefore(%d) on head %d of %d rows: scan dropped %d (head %d), binary search %d (head %d)",
					trial, width, cut, beforeHead, beforeLen, gd, got.head, wd, want.head)
			}
			if got.Len() > 0 && got.headT != got.times[got.head] {
				t.Fatalf("trial %d: cached head %d, head row %d", trial, got.headT, got.times[got.head])
			}
		}
	}
}

// TestFrameMatchesPerColumnSeries is the frame's property test: random
// frames of 1 to 9 columns take random rows (repeated timestamps
// included) and random cutoffs — before the head, at the head, inside the
// column, at the tail and beyond it — and after every operation each
// column's Len, Last, ViewAll and a random View window equal those of a
// per-column reference Series, which retention rebuilds as the window
// from the cutoff on.
func TestFrameMatchesPerColumnSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	beyond := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	sameView := func(a, b View) bool {
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if a.NanoAt(i) != b.NanoAt(i) || math.Float64bits(a.ValueAt(i)) != math.Float64bits(b.ValueAt(i)) {
				return false
			}
		}
		return true
	}
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(maxFrameWidth)
		f := NewFrame(width, rng.Intn(8))
		refs := make([]*Series, width)
		for c := range refs {
			refs[c] = New(0)
		}
		var last int64
		for op := 0; op < 150; op++ {
			if rng.Intn(3) > 0 || f.Len() == 0 {
				last += int64(rng.Intn(3)) * int64(time.Second)
				row := make([]float64, width)
				for c := range row {
					row[c] = rng.NormFloat64()
					refs[c].MustAppend(nanoTime(last), row[c])
				}
				if err := f.Append(nanoTime(last), row...); err != nil {
					t.Fatal(err)
				}
			} else {
				tail, _ := refs[0].Last()
				cut := randomCut(rng, refs[0].At(0).T.UnixNano(), tail.T.UnixNano())
				before := f.Len()
				dropped := f.DropBefore(nanoTime(cut))
				for c := range refs {
					refs[c] = refs[c].View(nanoTime(cut), beyond).Materialize()
				}
				if dropped != before-refs[0].Len() {
					t.Fatalf("trial %d op %d: dropped %d, reference dropped %d", trial, op, dropped, before-refs[0].Len())
				}
			}
			if f.Len() != refs[0].Len() {
				t.Fatalf("trial %d op %d: len %d, reference %d", trial, op, f.Len(), refs[0].Len())
			}
			for c, ref := range refs {
				gl, gok := f.Last(c)
				wl, wok := ref.Last()
				if gok != wok || !gl.T.Equal(wl.T) || math.Float64bits(gl.V) != math.Float64bits(wl.V) {
					t.Fatalf("trial %d op %d col %d: Last %v/%v, reference %v/%v", trial, op, c, gl, gok, wl, wok)
				}
				if !sameView(f.ViewAll(c), ref.ViewAll()) {
					t.Fatalf("trial %d op %d col %d: ViewAll differs from reference", trial, op, c)
				}
				from := nanoTime(last - rng.Int63n(int64(60*time.Second)))
				to := from.Add(time.Duration(rng.Int63n(int64(60 * time.Second))))
				if !sameView(f.View(c, from, to), ref.View(from, to)) {
					t.Fatalf("trial %d op %d col %d: View(%v, %v) differs from reference", trial, op, c, from, to)
				}
			}
		}
	}
}

// TestFrameRejectsBadRows: a row of the wrong width or out of order is an
// error and leaves the frame unchanged.
func TestFrameRejectsBadRows(t *testing.T) {
	f := NewFrame(3, 0)
	if err := f.Append(columnarEpoch.Add(time.Second), 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		at time.Time
		vs []float64
	}{
		{columnarEpoch.Add(2 * time.Second), []float64{1, 2}},
		{columnarEpoch.Add(2 * time.Second), []float64{1, 2, 3, 4}},
		{columnarEpoch, []float64{1, 2, 3}},
	} {
		if err := f.Append(bad.at, bad.vs...); err == nil {
			t.Fatalf("Append(%v, %v) accepted", bad.at, bad.vs)
		}
		if f.Len() != 1 || len(f.times) != 1 {
			t.Fatalf("rejected row changed the frame: len %d", f.Len())
		}
		for c := 0; c < 3; c++ {
			if len(f.cols[c]) != 1 {
				t.Fatalf("rejected row changed column %d: len %d", c, len(f.cols[c]))
			}
		}
	}
}

// legacyPercentileRef is the pre-rebuild copy-and-sort-per-call
// implementation, kept verbatim as the property-test oracle.
func legacyPercentileRef(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return Min(vs)
	}
	if p >= 100 {
		return Max(vs)
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

// TestPercentileScratchMatchesLegacy property-tests the reused-scratch
// percentile path (and the public Percentile) against the pre-rebuild
// implementation to 1e-12 over randomised inputs, and confirms the input
// slice is never mutated.
func TestPercentileScratchMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc AggScratch
	aggs := []Agg{AggP50, AggP90, AggP99}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(200)
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		orig := append([]float64(nil), vs...)
		p := rng.Float64() * 110 // exercise the <=0 / >=100 clamps too
		if trial%10 == 0 {
			p = -5
		}

		want := legacyPercentileRef(vs, p)
		got := Percentile(vs, p)
		gotScratch := sc.percentile(vs, p)
		if diff := math.Abs(got - want); diff > 1e-12 {
			t.Fatalf("trial %d: Percentile(p=%v) = %v, legacy %v (diff %g)", trial, p, got, want, diff)
		}
		if diff := math.Abs(gotScratch - want); diff > 1e-12 {
			t.Fatalf("trial %d: scratch percentile(p=%v) = %v, legacy %v (diff %g)", trial, p, gotScratch, want, diff)
		}

		// The percentile Aggs route through the same scratch path.
		a := aggs[rng.Intn(len(aggs))]
		ap := map[Agg]float64{AggP50: 50, AggP90: 90, AggP99: 99}[a]
		if diff := math.Abs(a.ApplyWith(vs, &sc) - legacyPercentileRef(vs, ap)); diff > 1e-12 {
			t.Fatalf("trial %d: %v.ApplyWith diff %g", trial, a, diff)
		}

		for i := range vs {
			if vs[i] != orig[i] {
				t.Fatalf("trial %d: input mutated at %d", trial, i)
			}
		}
	}
}

// TestViewResampleMatchesSeriesResample: the zero-copy streaming resampler
// and the legacy-shaped Series.Resample agree bit-for-bit, including the
// reused-destination path.
func TestViewResampleMatchesSeriesResample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		s := New(0)
		now := columnarEpoch
		n := 1 + rng.Intn(500)
		for i := 0; i < n; i++ {
			now = now.Add(time.Duration(1+rng.Intn(30)) * time.Second)
			s.MustAppend(now, rng.NormFloat64()*100)
		}
		period := time.Duration(1+rng.Intn(120)) * time.Second
		for _, agg := range []Agg{AggMean, AggSum, AggMin, AggMax, AggCount, AggP50, AggP90, AggP99} {
			want := s.Resample(period, agg)
			var sc AggScratch
			dst := New(0)
			got := s.ViewAll().ResampleInto(dst, period, agg, &sc)
			if got.Len() != want.Len() {
				t.Fatalf("trial %d %v: len %d vs %d", trial, agg, got.Len(), want.Len())
			}
			for i := 0; i < got.Len(); i++ {
				g, w := got.At(i), want.At(i)
				if !g.T.Equal(w.T) || math.Float64bits(g.V) != math.Float64bits(w.V) {
					t.Fatalf("trial %d %v [%d]: %v/%v vs %v/%v", trial, agg, i, g.T, g.V, w.T, w.V)
				}
			}
		}
	}
}

// TestViewZeroCopyWindow: views found by binary search agree with Between.
func TestViewZeroCopyWindow(t *testing.T) {
	s := New(0)
	for i := 0; i < 500; i++ {
		s.MustAppend(columnarEpoch.Add(time.Duration(2*i)*time.Second), float64(i))
	}
	from := columnarEpoch.Add(101 * time.Second)
	to := columnarEpoch.Add(700 * time.Second)
	v := s.View(from, to)
	w := s.Between(from, to)
	if v.Len() != w.Len() {
		t.Fatalf("view len %d != between len %d", v.Len(), w.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if v.At(i) != w.At(i) {
			t.Fatalf("[%d] view %v != between %v", i, v.At(i), w.At(i))
		}
	}
	// Open-ended and empty windows.
	if got := s.View(time.Time{}, to).Len(); got != s.Between(time.Time{}, to).Len() {
		t.Fatalf("zero-from view len %d mismatch", got)
	}
	if got := s.View(to, from).Len(); got != 0 {
		t.Fatalf("inverted window view len %d, want 0", got)
	}
}
