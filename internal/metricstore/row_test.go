package metricstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/timeseries"
)

// rowSpec is one randomly generated publisher row.
type rowSpec struct {
	ns    string
	dims  map[string]string
	names []string
}

func genRows(rng *rand.Rand) []rowSpec {
	nss := []string{"Ingestion/Stream", "Analytics/Compute", "Storage/KVStore"}
	rows := make([]rowSpec, 2+rng.Intn(4))
	for i := range rows {
		r := rowSpec{ns: nss[rng.Intn(len(nss))], dims: map[string]string{"Flow": fmt.Sprintf("f%d", i)}}
		if rng.Intn(3) == 0 {
			r.dims["Shard"] = fmt.Sprintf("s%d", rng.Intn(2))
		}
		for c := 0; c < 1+rng.Intn(9); c++ {
			r.names = append(r.names, fmt.Sprintf("M%d", c))
		}
		rows[i] = r
	}
	return rows
}

// sameSeries requires two series to match bit for bit.
func sameSeries(t *testing.T, tag string, got, want *timeseries.Series) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: len %d, handle store %d", tag, got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		g, w := got.At(i), want.At(i)
		if !g.T.Equal(w.T) || math.Float64bits(g.V) != math.Float64bits(w.V) {
			t.Fatalf("%s[%d]: %v/%v, handle store %v/%v", tag, i, g.T, g.V, w.T, w.V)
		}
	}
}

// sameFloat compares two statistics, NaN equal to NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestRowAnswersLikeHandles feeds the same random values into one store
// through rows and into another through one Handle per metric, with and
// without retention, and requires every read — ListMetrics, Namespaces,
// Each, Lookup, Latest, Len, Handle.Stat, Handle.Window and WindowValues —
// to answer identically. One row is interned and never
// appended, so both stores must also hide it alike.
func TestRowAnswersLikeHandles(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rowStore, handleStore := NewStore(), NewStore()
		if seed%2 == 1 {
			rowStore.SetRetention(20 * time.Minute)
			handleStore.SetRetention(20 * time.Minute)
		}
		specs := genRows(rng)
		rows := make([]*Row, len(specs))
		handles := make([][]*Handle, len(specs))
		clocks := make([]time.Time, len(specs))
		for i, sp := range specs {
			rows[i] = rowStore.MustRow(sp.ns, sp.dims, sp.names...)
			for _, name := range sp.names {
				handles[i] = append(handles[i], handleStore.MustHandle(sp.ns, name, sp.dims))
			}
			clocks[i] = t0
		}
		silent := len(specs) - 1 // interned, never appended
		for n := 0; n < 3000; n++ {
			i := rng.Intn(silent)
			clocks[i] = clocks[i].Add(time.Duration(rng.Intn(20)) * time.Second)
			vs := make([]float64, len(specs[i].names))
			for c := range vs {
				vs[c] = math.Round(rng.NormFloat64()*1e6) / 1e3
				handles[i][c].MustAppend(clocks[i], vs[c])
			}
			rows[i].MustAppend(clocks[i], vs...)
		}

		for _, ns := range []string{"", "Ingestion/Stream", "Storage/KVStore"} {
			if got, want := rowStore.ListMetrics(ns), handleStore.ListMetrics(ns); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: ListMetrics(%q) = %v, handle store %v", seed, ns, got, want)
			}
		}
		if got, want := rowStore.Namespaces(), handleStore.Namespaces(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Namespaces %v, handle store %v", seed, got, want)
		}
		var gotEach, wantEach []*timeseries.Series
		var gotIDs, wantIDs []MetricID
		rowStore.Each(func(id MetricID, v timeseries.View) {
			gotIDs, gotEach = append(gotIDs, id), append(gotEach, v.Materialize())
		})
		handleStore.Each(func(id MetricID, v timeseries.View) {
			wantIDs, wantEach = append(wantIDs, id), append(wantEach, v.Materialize())
		})
		if !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("seed %d: Each visited %v, handle store %v", seed, gotIDs, wantIDs)
		}
		for k := range gotEach {
			sameSeries(t, fmt.Sprintf("seed %d Each %s", seed, gotIDs[k]), gotEach[k], wantEach[k])
		}

		for i, sp := range specs {
			for c, name := range sp.names {
				tag := fmt.Sprintf("seed %d %s/%s%v", seed, sp.ns, name, sp.dims)
				gh, gok := rowStore.Lookup(sp.ns, name, sp.dims)
				wh, wok := handleStore.Lookup(sp.ns, name, sp.dims)
				if gok != wok || gok != (i != silent) {
					t.Fatalf("%s: Lookup ok %v, handle store %v", tag, gok, wok)
				}
				if !gok {
					continue
				}
				if gh.ID().Key() != rows[i].Handle(c).ID().Key() {
					t.Fatalf("%s: Lookup and Row.Handle disagree: %v vs %v", tag, gh.ID(), rows[i].Handle(c).ID())
				}
				gl, _ := gh.Latest()
				wl, _ := wh.Latest()
				if !gl.T.Equal(wl.T) || math.Float64bits(gl.V) != math.Float64bits(wl.V) || gh.Len() != wh.Len() {
					t.Fatalf("%s: Latest %v len %d, handle store %v len %d", tag, gl, gh.Len(), wl, wh.Len())
				}
				for q := 0; q < 10; q++ {
					var from, to time.Time
					if rng.Intn(4) > 0 {
						from = t0.Add(time.Duration(rng.Intn(40000)) * time.Second)
					}
					if rng.Intn(4) > 0 {
						to = from.Add(time.Duration(rng.Intn(40000)) * time.Second)
					}
					var period time.Duration
					if rng.Intn(2) == 0 {
						period = time.Duration(1+rng.Intn(600)) * time.Second
					}
					stat := timeseries.Agg(rng.Intn(int(timeseries.AggP99) + 1))
					wq := WindowQuery{From: from, To: to, Period: period, Stat: stat}
					sameSeries(t, tag+" Window", gh.Window(wq), wh.Window(wq))
					sameSeries(t, tag+" Row.Handle Window", rows[i].Handle(c).Window(wq), wh.Window(wq))
					gv, gn := gh.Stat(from, to, stat)
					wv, wn := wh.Stat(from, to, stat)
					if gn != wn || !sameFloat(gv, wv) {
						t.Fatalf("%s: Stat %v over %d, handle store %v over %d", tag, gv, gn, wv, wn)
					}
					if got, want := gh.WindowValues(from, to, nil), wh.WindowValues(from, to, nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: WindowValues differ", tag)
					}
				}
			}
		}
	}
}

// frameState snapshots a frame's columns for unchanged-after-error checks.
func frameState(f *frame) [][]timeseries.Point {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]timeseries.Point, f.fr.Width())
	for c := range out {
		v := f.fr.ViewAll(c)
		for i := 0; i < v.Len(); i++ {
			out[c] = append(out[c], v.At(i))
		}
	}
	return out
}

// TestRowColumnRejectsSingleAppends: a lone value appended to a column of
// a multi-column row — through Row.Handle, Store.Handle or Lookup — and a
// row of the wrong width or out of order all return an error and leave
// the frame and the append counter untouched.
func TestRowColumnRejectsSingleAppends(t *testing.T) {
	s := NewStore()
	dims := map[string]string{"TableName": "t"}
	r := s.MustRow("Storage/KVStore", dims, "A", "B", "C")
	r.MustAppend(t0, 1, 2, 3)
	before := frameState(r.f)
	appendsBefore := scrapeCounter(t, "flower_store_appends_total")

	h, err := s.Handle("Storage/KVStore", "B", dims)
	if err != nil {
		t.Fatalf("Handle on a row column: %v", err)
	}
	looked, ok := s.Lookup("Storage/KVStore", "B", dims)
	if !ok {
		t.Fatal("Lookup missed a published row column")
	}
	at := t0.Add(time.Second)
	for name, err := range map[string]error{
		"Row.Handle":   r.Handle(1).Append(at, 9),
		"Store.Handle": h.Append(at, 9),
		"Lookup":       looked.Append(at, 9),
		"short row":    r.Append(at, 9, 9),
		"long row":     r.Append(at, 9, 9, 9, 9),
		"early row":    r.Append(t0.Add(-time.Second), 9, 9, 9),
	} {
		if err == nil {
			t.Fatalf("%s: append accepted", name)
		}
	}
	if after := frameState(r.f); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected appends changed the frame: %v, was %v", after, before)
	}
	if got := scrapeCounter(t, "flower_store_appends_total"); got != appendsBefore {
		t.Fatalf("rejected appends counted %d appends", got-appendsBefore)
	}
	if p, _ := h.Latest(); p.V != 2 || !p.T.Equal(t0) {
		t.Fatalf("Store.Handle on the row column reads %v, want 2 at %v", p, t0)
	}

	// A one-column row is a plain metric: its handle appends.
	one := s.MustRow("Storage/KVStore", dims, "Solo")
	if err := one.Handle(0).Append(t0, 5); err != nil {
		t.Fatalf("append to a one-column row's handle: %v", err)
	}
}

// TestRowRejectsExistingNames: a row may not take over a metric that
// exists — on its own or as another row's column — nor repeat a name,
// and a refused row interns none of its names.
func TestRowRejectsExistingNames(t *testing.T) {
	s := NewStore()
	dims := map[string]string{"StreamName": "s"}
	s.MustHandle("Ingestion/Stream", "Single", dims)
	s.MustRow("Ingestion/Stream", dims, "X", "Y")
	for name, names := range map[string][]string{
		"existing single": {"Fresh1", "Single"},
		"existing column": {"Fresh2", "Y"},
		"repeated":        {"Fresh3", "Fresh3"},
		"empty name":      {"Fresh4", ""},
		"no names":        nil,
	} {
		if _, err := s.Row("Ingestion/Stream", dims, names...); err == nil {
			t.Fatalf("%s: Row(%v) accepted", name, names)
		}
	}
	if _, err := s.Row("", dims, "Z"); err == nil {
		t.Fatal("Row with an empty namespace accepted")
	}
	s.mu.RLock()
	n := len(s.series)
	s.mu.RUnlock()
	if n != 3 {
		t.Fatalf("refused rows interned names: %d entries, want 3", n)
	}
	// The same names under other dimensions are other metrics.
	if _, err := s.Row("Ingestion/Stream", map[string]string{"StreamName": "t"}, "X", "Y"); err != nil {
		t.Fatal(err)
	}
}

// TestRowJournalOrderAndCounters: with rows appending from many stores at
// once, the scraped append and retention counters count values exactly.
func TestRowJournalOrderAndCounters(t *testing.T) {
	const stores, rowsPerStore, keep = 24, 400, 100
	appendsBefore := scrapeCounter(t, "flower_store_appends_total")
	droppedBefore := scrapeCounter(t, "flower_store_retention_dropped_total")
	var wg sync.WaitGroup
	wantValues, wantDropped := 0, 0
	for i := 0; i < stores; i++ {
		width := 1 + i%9
		wantValues += width * rowsPerStore
		wantDropped += width * (rowsPerStore - keep)
		st := NewStore()
		st.SetRetention((keep - 1) * time.Second)
		names := make([]string, width)
		for c := range names {
			names[c] = fmt.Sprintf("M%d", c)
		}
		row := st.MustRow("ns", nil, names...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			vs := make([]float64, width)
			for n := 0; n < rowsPerStore; n++ {
				if err := row.Append(t0.Add(time.Duration(n)*time.Second), vs...); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := scrapeCounter(t, "flower_store_appends_total") - appendsBefore; got != uint64(wantValues) {
		t.Fatalf("appends counted %d, want %d values", got, wantValues)
	}
	if got := scrapeCounter(t, "flower_store_retention_dropped_total") - droppedBefore; got != uint64(wantDropped) {
		t.Fatalf("retention drops counted %d, want %d values", got, wantDropped)
	}
}
