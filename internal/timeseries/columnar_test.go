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

// TestDropBeforeSemantics: DropBefore removes exactly the points older
// than the cutoff and leaves index-based access consistent.
func TestDropBeforeSemantics(t *testing.T) {
	s := New(0)
	for i := 0; i < 100; i++ {
		s.MustAppend(columnarEpoch.Add(time.Duration(i)*time.Second), float64(i))
	}
	cutoff := columnarEpoch.Add(40 * time.Second)
	if dropped := s.DropBefore(cutoff); dropped != 40 {
		t.Fatalf("dropped %d, want 40", dropped)
	}
	if s.Len() != 60 {
		t.Fatalf("len %d, want 60", s.Len())
	}
	if got := s.At(0); !got.T.Equal(cutoff) || got.V != 40 {
		t.Fatalf("At(0) = %v/%v, want %v/40", got.T, got.V, cutoff)
	}
	if last, _ := s.Last(); last.V != 99 {
		t.Fatalf("last %v, want 99", last.V)
	}
	// A second drop with an older cutoff is a no-op.
	if dropped := s.DropBefore(cutoff.Add(-time.Minute)); dropped != 0 {
		t.Fatalf("re-drop dropped %d, want 0", dropped)
	}
	// Appends after a drop continue the series.
	s.MustAppend(columnarEpoch.Add(200*time.Second), 200)
	if last, _ := s.Last(); last.V != 200 {
		t.Fatalf("append after drop: last %v, want 200", last.V)
	}
}

// TestDropBeforeAmortisedCopyWork is the retention-pruning regression
// test: a sliding-window workload (append one, drop expired) over n
// appends must do at most O(n) total copy work, where the pre-rebuild
// implementation re-copied the whole surviving window on every insert
// (O(n·w)). The compaction counter measures points physically moved.
func TestDropBeforeAmortisedCopyWork(t *testing.T) {
	const n = 50_000
	const window = 1000 * time.Second
	s := New(0)
	for i := 0; i < n; i++ {
		now := columnarEpoch.Add(time.Duration(i) * time.Second)
		s.MustAppend(now, float64(i))
		s.DropBefore(now.Add(-window))
	}
	copied := CopiedPoints(s)
	if copied > int64(2*n) {
		t.Fatalf("compaction copied %d points over %d appends; amortised bound is %d", copied, n, 2*n)
	}
	// Sanity: the window is actually being enforced.
	if got := s.Len(); got != 1001 {
		t.Fatalf("window holds %d points, want 1001", got)
	}
	// And compaction does trigger (head returns to a bounded offset).
	if h := Head(s); h >= s.Len() {
		t.Fatalf("head %d grew past live region %d — compaction never ran", h, s.Len())
	}
}

// binarySearchDropBefore is DropBefore as it was before the forward scan:
// a binary search for the cutoff over the live region, then the same head
// advance and compaction. It is the oracle for the scan.
func binarySearchDropBefore(s *Series, t time.Time) int {
	lo := s.head + sort.Search(len(s.times)-s.head, func(i int) bool { return s.times[s.head+i] >= unixNano(t) })
	dropped := lo - s.head
	if dropped <= 0 {
		return 0
	}
	s.head = lo
	if s.head >= compactMin && 2*s.head >= len(s.times) {
		live := len(s.times) - s.head
		copy(s.times, s.times[s.head:])
		copy(s.vals, s.vals[s.head:])
		s.times = s.times[:live]
		s.vals = s.vals[:live]
		s.copied += int64(live)
		s.head = 0
	}
	return dropped
}

func cloneSeries(s *Series) *Series {
	return &Series{
		times:  append([]int64(nil), s.times...),
		vals:   append([]float64(nil), s.vals...),
		head:   s.head,
		copied: s.copied,
	}
}

// TestDropBeforeMatchesBinarySearch drives random series — repeated
// timestamps included — through a random sequence of appends and drops,
// with cutoffs before the head, inside the column, at the tail and beyond
// it, and requires the forward scan to leave exactly the state the binary
// search leaves.
func TestDropBeforeMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		got, want := New(0), New(0)
		var last int64
		for op := 0; op < 200; op++ {
			if rng.Intn(3) > 0 || got.Len() == 0 {
				for n := rng.Intn(40); n >= 0; n-- {
					last += int64(rng.Intn(3)) * int64(time.Second) // 0: a repeated timestamp
					got.MustAppend(nanoTime(last), float64(op))
					want.MustAppend(nanoTime(last), float64(op))
				}
				continue
			}
			first, tail := got.times[got.head], got.times[len(got.times)-1]
			var cut int64
			switch rng.Intn(5) {
			case 0: // before the head
				cut = first - int64(rng.Intn(5)+1)*int64(time.Second)
			case 1: // exactly the head
				cut = first
			case 2: // inside the column
				cut = first + rng.Int63n(tail-first+1)
			case 3: // at the tail
				cut = tail
			default: // beyond the tail
				cut = tail + int64(rng.Intn(5)+1)*int64(time.Second)
			}
			before := cloneSeries(got)
			gd, wd := got.DropBefore(nanoTime(cut)), binarySearchDropBefore(want, nanoTime(cut))
			if gd != wd || got.head != want.head || got.copied != want.copied ||
				!slices.Equal(got.times, want.times) || !slices.Equal(got.vals, want.vals) {
				t.Fatalf("trial %d: DropBefore(%d) on head %d of %d points: scan dropped %d (head %d), binary search %d (head %d)",
					trial, cut, before.head, len(before.times), gd, got.head, wd, want.head)
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
