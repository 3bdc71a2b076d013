package metricstore

import (
	"fmt"
	"time"
)

// Row is an interned reference to one publisher's per-tick metrics, stored
// as one frame: a shared time column, one value column per metric, one
// lock. Append writes a whole row — one timestamp and one value per
// metric — so a publisher of n metrics takes one lock and checks one
// timestamp per tick instead of n. Rows are safe for concurrent use and
// remain valid for the life of the store.
type Row struct {
	s       *Store
	f       *frame
	handles []*Handle
}

// Row interns the named metrics, all under namespace ns and dimensions
// dims, as the columns of one new frame, in the order given. It is an
// error if any of them already exists in the store (as a metric of its
// own or as a column of another row), if a name repeats, or if ns or a
// name is empty. Like Handle, it is a build-time call.
func (s *Store) Row(ns string, dims map[string]string, names ...string) (*Row, error) {
	if ns == "" || len(names) == 0 {
		return nil, fmt.Errorf("metricstore: a row needs a namespace and at least one metric name")
	}
	cp := copyDims(dims)
	ids := make([]MetricID, len(names))
	keys := make([]string, len(names))
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("metricstore: row in %s: empty metric name", ns)
		}
		ids[i] = MetricID{Namespace: ns, Name: name, Dimensions: cp}
		keys[i] = ids[i].Key()
		for j := range i {
			if keys[j] == keys[i] {
				return nil, fmt.Errorf("metricstore: row repeats metric %s", ids[i])
			}
		}
	}
	f := newFrame(ids)
	r := &Row{s: s, f: f, handles: make([]*Handle, len(ids))}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		if _, ok := s.series[k]; ok {
			return nil, fmt.Errorf("metricstore: row: metric %s already exists", ids[i])
		}
	}
	for i, k := range keys {
		e := &entry{id: ids[i], f: f, col: i}
		s.series[k] = e
		r.handles[i] = &Handle{s: s, e: e}
	}
	telEntries.Add(int64(len(ids)))
	return r, nil
}

// MustRow is Row for wiring code where failure is a bug.
func (s *Store) MustRow(ns string, dims map[string]string, names ...string) *Row {
	r, err := s.Row(ns, dims, names...)
	if err != nil {
		panic(err)
	}
	return r
}

// Append records one row: the timestamp and one value per metric, in the
// order Row named them. The timestamp must not precede the row's newest.
// Retention pruning runs as for Handle.Append. On error nothing is
// stored.
func (r *Row) Append(t time.Time, vs ...float64) error {
	return r.s.appendRow(r.f, t, vs)
}

// MustAppend is Append for publishers that own the clock.
func (r *Row) MustAppend(t time.Time, vs ...float64) {
	if err := r.Append(t, vs...); err != nil {
		panic(err)
	}
}

// Handle returns the read handle of the row's i-th metric.
func (r *Row) Handle(i int) *Handle { return r.handles[i] }
