package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strings"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/metricstore"
	"repro/internal/sim"
	"repro/internal/timeseries"
)

// refSeries is one series of a reference answer, in the wire's column
// shape.
type refSeries struct {
	Flow, NS, Name string
	Ts             []int64
	Vs             []float64
}

func (s refSeries) key() string { return s.Flow + "\x00" + s.NS + "\x00" + s.Name }

// checkQuery is one /v1/query whose answer is compared with a naive
// reference: materialise each raw window, bucket it by hand, aggregate —
// the evaluation style internal/perfbench's baselines freeze.
type checkQuery struct {
	route string
	q     string
	ref   func(fx *fixture) []refSeries
}

func checkQueries(fx *fixture, probe int) []checkQuery {
	dash := flowID(probe)
	return []checkQuery{
		{"query_dash", dashQuery(dash), func(fx *fixture) []refSeries {
			return naiveSelect(fx, func(id string) bool { return id == dash }, "Analytics/Compute", "CPUUtilization",
				func(h *metricstore.Handle, now time.Time) ([]int64, []float64) {
					return naiveResample(naiveWindow(h, now, time.Hour), time.Minute, timeseries.AggMean)
				})
		}},
		{"query_fleet", fleetQuery(0), func(fx *fixture) []refSeries {
			return naiveSelect(fx, prefix("b00-"), "Ingestion/Stream", "WriteUtilization",
				func(h *metricstore.Handle, now time.Time) ([]int64, []float64) {
					raw := naiveWindow(h, now, 10*time.Minute)
					if raw.Len() == 0 {
						return nil, nil
					}
					vals := make([]float64, raw.Len())
					for i := range vals {
						vals[i] = raw.At(i).V
					}
					return []int64{raw.At(raw.Len() - 1).T.UnixNano()}, []float64{timeseries.AggMean.Apply(vals)}
				})
		}},
		{"query_join", joinQuery(0, 0), func(fx *fixture) []refSeries {
			return naiveJoinMax(fx, prefix("b00-g0-"))
		}},
	}
}

func prefix(p string) func(string) bool {
	return func(id string) bool { return strings.HasPrefix(id, p) }
}

func naiveWindow(h *metricstore.Handle, now time.Time, window time.Duration) *timeseries.Series {
	return h.Window(metricstore.WindowQuery{From: now.Add(-window), To: now.Add(time.Nanosecond)})
}

// naiveResample buckets a materialised series into epoch-aligned periods,
// one []float64 per bucket, then one Apply per bucket.
func naiveResample(s *timeseries.Series, period time.Duration, stat timeseries.Agg) (ts []int64, vs []float64) {
	buckets := make(map[int64][]float64)
	var order []int64
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		b := timeseries.BucketStart(p.T.UnixNano(), period)
		if _, ok := buckets[b]; !ok {
			order = append(order, b)
		}
		buckets[b] = append(buckets[b], p.V)
	}
	for _, b := range order {
		ts = append(ts, b)
		vs = append(vs, stat.Apply(buckets[b]))
	}
	return ts, vs
}

// naiveSelect evaluates fn over every (ns, name) series of every matching
// flow.
func naiveSelect(fx *fixture, match func(string) bool, ns, name string,
	fn func(h *metricstore.Handle, now time.Time) ([]int64, []float64)) []refSeries {
	var out []refSeries
	for _, f := range fx.flows {
		if !match(f.ID()) {
			continue
		}
		f.View(func(m *core.Manager) {
			store, now := m.Store(), m.Harness().Clock.Now()
			for _, id := range store.ListMetrics(ns) {
				if id.Name != name {
					continue
				}
				h, ok := store.Lookup(id.Namespace, id.Name, id.Dimensions)
				if !ok {
					continue
				}
				ts, vs := fn(h, now)
				out = append(out, refSeries{Flow: f.ID(), NS: ns, Name: name, Ts: ts, Vs: vs})
			}
		})
	}
	return out
}

// naiveJoinMax evaluates the join route: per flow, both sides resampled
// by hand, joined through a map on bucket start, l/r per matched bucket,
// then the maximum at the last matched bucket.
func naiveJoinMax(fx *fixture, match func(string) bool) []refSeries {
	var out []refSeries
	for _, f := range fx.flows {
		if !match(f.ID()) {
			continue
		}
		f.View(func(m *core.Manager) {
			store, now := m.Store(), m.Harness().Clock.Now()
			cpu := store.ListMetrics("Analytics/Compute")
			var left, right *metricstore.Handle
			for _, id := range cpu {
				h, _ := store.Lookup(id.Namespace, id.Name, id.Dimensions)
				switch id.Name {
				case "CPUUtilization":
					left = h
				case "VMCount":
					right = h
				}
			}
			if left == nil || right == nil {
				return
			}
			lts, lvs := naiveResample(naiveWindow(left, now, time.Hour), time.Minute, timeseries.AggMean)
			rts, rvs := naiveResample(naiveWindow(right, now, time.Hour), time.Minute, timeseries.AggMean)
			byBucket := make(map[int64]float64, len(rts))
			for i, t := range rts {
				byBucket[t] = rvs[i]
			}
			var joined []float64
			var lastT int64
			for i, t := range lts {
				if rv, ok := byBucket[t]; ok {
					joined = append(joined, lvs[i]/rv)
					lastT = t
				}
			}
			s := refSeries{Flow: f.ID(), NS: "Analytics/Compute", Name: "CPUUtilization"}
			if len(joined) > 0 {
				s.Ts, s.Vs = []int64{lastT}, []float64{timeseries.AggMax.Apply(joined)}
			}
			out = append(out, s)
		})
	}
	return out
}

// postQuery runs q through POST /v1/query.
func postQuery(client *http.Client, base, q string) (*apiv1.QueryResponse, error) {
	resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(mustJSON(apiv1.QueryRequest{Q: q})))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var out apiv1.QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// compareAnswer reports the first difference between the served answer
// and the reference, comparing timestamps exactly and values bit for bit.
func compareAnswer(got []apiv1.QuerySeries, want []refSeries) error {
	have := make([]refSeries, len(got))
	for i, s := range got {
		have[i] = refSeries{Flow: s.Flow, NS: s.Namespace, Name: s.Name, Ts: s.Ts, Vs: s.Vs}
	}
	byKey := func(a, b refSeries) int { return strings.Compare(a.key(), b.key()) }
	slices.SortStableFunc(have, byKey)
	slices.SortStableFunc(want, byKey)
	if len(have) != len(want) {
		return fmt.Errorf("%d series, reference has %d", len(have), len(want))
	}
	for i := range want {
		h, w := have[i], want[i]
		if h.key() != w.key() {
			return fmt.Errorf("series %d is %s/%s/%s, reference %s/%s/%s", i, h.Flow, h.NS, h.Name, w.Flow, w.NS, w.Name)
		}
		if !slices.Equal(h.Ts, w.Ts) {
			return fmt.Errorf("%s: timestamps differ (%d vs %d points)", w.Flow, len(h.Ts), len(w.Ts))
		}
		if len(h.Vs) != len(w.Vs) {
			return fmt.Errorf("%s: %d values, reference %d", w.Flow, len(h.Vs), len(w.Vs))
		}
		for j := range w.Vs {
			if math.Float64bits(h.Vs[j]) != math.Float64bits(w.Vs[j]) {
				return fmt.Errorf("%s: value %d is %v, reference %v", w.Flow, j, h.Vs[j], w.Vs[j])
			}
		}
	}
	if len(want) == 0 {
		return fmt.Errorf("reference answer is empty")
	}
	return nil
}

// checkOracle replays flow i on a fresh simulator with the same spec and
// seed for the same number of ticks and requires identical decisions.
func checkOracle(fx *fixture, i int) error {
	var ticks int
	paced := make(map[flow.LayerKind][]control.Decision)
	fx.flows[i].View(func(m *core.Manager) {
		ticks = m.Harness().Scheduler.Steps()
		for kind, loop := range m.Harness().Loops {
			paced[kind] = append([]control.Decision(nil), loop.Decisions()...)
		}
	})
	h, err := sim.New(fx.spec, fx.opts[i])
	if err != nil {
		return err
	}
	h.Scheduler.RunSteps(ticks)
	if len(h.Loops) != len(paced) {
		return fmt.Errorf("flow %s: %d control loops, fresh simulator %d", fx.flows[i].ID(), len(paced), len(h.Loops))
	}
	for kind, loop := range h.Loops {
		want, got := loop.Decisions(), paced[kind]
		if len(want) != len(got) {
			return fmt.Errorf("flow %s %s: %d decisions after %d ticks, fresh simulator %d", fx.flows[i].ID(), kind, len(got), ticks, len(want))
		}
		for j := range want {
			if !sameDecision(got[j], want[j]) {
				return fmt.Errorf("flow %s %s: decision %d differs: %+v vs %+v", fx.flows[i].ID(), kind, j, got[j], want[j])
			}
		}
	}
	return nil
}

func sameDecision(a, b control.Decision) bool {
	bits := math.Float64bits
	return a.At.Equal(b.At) && bits(a.Measured) == bits(b.Measured) && bits(a.Ref) == bits(b.Ref) &&
		bits(a.OldU) == bits(b.OldU) && bits(a.NewU) == bits(b.NewU) && a.Applied == b.Applied && a.Note == b.Note
}

// checkWatch requires the SSE stream's event ids to strictly increase and
// every gap — a flow.advanced event the reference subscriber saw for a
// watched flow but the stream skipped — to be preceded by a dropped-event
// marker.
func checkWatch(events []sseEvent, ref []uint64) error {
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	var last uint64
	var markers uint64
	started := false
	for _, ev := range events {
		switch ev.typ {
		case apiv1.EventDropped:
			markers += ev.dropped
			continue
		case apiv1.EventHello:
			if ev.seq < last {
				return fmt.Errorf("hello cursor f%d behind delivered f%d", ev.seq, last)
			}
			continue
		}
		if started && ev.seq <= last {
			return fmt.Errorf("event id f%d does not increase on f%d", ev.seq, last)
		}
		if started && len(ref) > 0 && last >= ref[0] && ev.seq <= ref[len(ref)-1] {
			lo, _ := slices.BinarySearch(ref, last+1)
			hi, _ := slices.BinarySearch(ref, ev.seq)
			if missing := hi - lo; missing > 0 && markers == 0 {
				return fmt.Errorf("%d events between f%d and f%d missing with no dropped marker", missing, last, ev.seq)
			}
		}
		started, last, markers = true, ev.seq, 0
	}
	if !started {
		return fmt.Errorf("the watch stream delivered no events")
	}
	return nil
}
