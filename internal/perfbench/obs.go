package perfbench

import (
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/metricstore"
	"repro/internal/telemetry"
)

// Observability suite: the cost of the self-telemetry plane itself. The
// plane instruments every hot path in the process, so its own overhead is
// a first-class perf artefact: counter updates and reads must be
// allocation-free (the budget below), and a full scrape (snapshot +
// Prometheus rendering) must stay cheap enough to run on a tight interval.

// ObsBench is one observability micro-benchmark. MaxAllocs is the
// allocs/op budget the measurement is asserted against (-1: unbudgeted).
type ObsBench struct {
	Name      string
	MaxAllocs int64
	F         func(b *testing.B)
}

// ObsSuite returns the observability benchmarks in report order.
func ObsSuite() []ObsBench {
	return []ObsBench{
		// The write side rides inside Handle.Append, scheduler ticks and the
		// HTTP middleware: zero allocations, no exceptions.
		{Name: "counter_inc", MaxAllocs: 0, F: benchCounterInc},
		{Name: "vec_with_inc", MaxAllocs: 0, F: benchVecWithInc},
		{Name: "histogram_observe", MaxAllocs: 0, F: benchHistogramObserve},
		{Name: "tracer_begin_unsampled", MaxAllocs: 0, F: benchTracerBeginUnsampled},
		// The full hot write — Handle.Append on a warmed ring under
		// retention, instruments included: every iteration adds to both
		// striped store counters (appends and retention drops).
		// Query-plane reads share the frame lock with this path, so the
		// budget doubles as a guard that read-side changes never push
		// allocations into the writer.
		{Name: "handle_append_hot", MaxAllocs: 0, F: benchHandleAppendHot},
		// The substrates' per-tick write — Row.Append of a 9-metric row,
		// the kvstore publisher's shape — under the same retention and
		// instruments: one lock, one timestamp, nine values.
		{Name: "row_append_hot", MaxAllocs: 0, F: benchRowAppendHot},
		// The scheduler's worker drain loop — pop batch, execute, flush,
		// re-queue — must also stay allocation-free: it runs once per batch
		// for every paced flow in the process.
		{Name: "sched_drain_hot", MaxAllocs: 0, F: BenchSchedDrainHot},
		// The read side: one counter read may spend at most one allocation
		// (the acceptance budget; the implementation spends none).
		{Name: "counter_read", MaxAllocs: 1, F: benchCounterRead},
		// Scrape cost: snapshotting a realistically sized registry and
		// rendering the Prometheus text. Unbudgeted on allocations — a
		// scrape allocates its snapshot by design — but tracked in the
		// report so regressions surface.
		{Name: "scrape_snapshot", MaxAllocs: -1, F: benchScrapeSnapshot},
		{Name: "scrape_prom_text", MaxAllocs: -1, F: benchScrapeProm},
	}
}

// RunObs executes the named observability benchmark; it reports failure on
// an unknown name.
func RunObs(b *testing.B, name string) {
	b.Helper()
	for _, bench := range ObsSuite() {
		if bench.Name == name {
			bench.F(b)
			return
		}
	}
	b.Fatalf("perfbench: no observability benchmark named %q", name)
}

func benchCounterInc(b *testing.B) {
	r := telemetry.NewRegistry()
	c := r.Counter("bench_total", "")
	b.ReportAllocs()
	for b.Loop() {
		c.Inc()
	}
}

func benchCounterRead(b *testing.B) {
	r := telemetry.NewRegistry()
	c := r.Counter("bench_total", "")
	c.Add(42)
	var sink uint64
	b.ReportAllocs()
	for b.Loop() {
		sink += c.Value()
	}
	if sink == 0 {
		b.Fatal("counter read zero")
	}
}

func benchVecWithInc(b *testing.B) {
	r := telemetry.NewRegistry()
	v := r.CounterVec("bench_labeled_total", "", "route", "method", "code")
	// Steady state: children exist, every With is a read-locked map hit.
	v.With("/v1/flows/{id}/metrics", "GET", "200").Inc()
	b.ReportAllocs()
	for b.Loop() {
		v.With("/v1/flows/{id}/metrics", "GET", "200").Inc()
	}
}

func benchHistogramObserve(b *testing.B) {
	r := telemetry.NewRegistry()
	h := r.Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}

// benchTracerBeginUnsampled measures the common case every flow advance
// pays: the sampling counter says no.
func benchTracerBeginUnsampled(b *testing.B) {
	tr := telemetry.NewTracer()
	tr.SetEvery(1 << 30) // effectively never sample
	b.ReportAllocs()
	for b.Loop() {
		if t := tr.Begin("bench"); t != nil {
			telemetry.Traces.Abandon(t)
		}
	}
}

// benchHandleAppendHot measures the steady-state hot write: a ring warmed
// past its growth phase under a 10-minute retention window, so every
// iteration is lock + ring write + telemetry and nothing else.
func benchHandleAppendHot(b *testing.B) {
	s := metricstore.NewStore()
	s.SetRetention(10 * time.Minute)
	h := s.MustHandle("Ingestion/Stream", "IncomingRecords", benchDims)
	const warm = 2048 // > retention at 1 Hz: the ring has wrapped
	for i := 0; i < warm; i++ {
		if err := h.Append(benchTime(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := warm; b.Loop(); i++ {
		if err := h.Append(benchTime(i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRowAppendHot is benchHandleAppendHot for a publisher row: nine
// metrics sharing one time column, warmed past retention, so every
// iteration is lock + one row write + pruning + telemetry.
func benchRowAppendHot(b *testing.B) {
	s := metricstore.NewStore()
	s.SetRetention(10 * time.Minute)
	r := s.MustRow("Storage/KVStore", benchDims,
		"ConsumedWCU", "ConsumedRCU", "ProvisionedWCU", "ProvisionedRCU",
		"ThrottledWrites", "ThrottledReads", "WriteUtilization", "ReadUtilization", "ItemCount")
	const warm = 2048 // > retention at 1 Hz: pruning runs every append
	for i := 0; i < warm; i++ {
		v := float64(i)
		if err := r.Append(benchTime(i), v, v, v, v, v, v, v, v, v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := warm; b.Loop(); i++ {
		v := float64(i)
		if err := r.Append(benchTime(i), v, v, v, v, v, v, v, v, v); err != nil {
			b.Fatal(err)
		}
	}
}

// obsRegistry builds a registry shaped like a live flowerd's: a few dozen
// families, labeled vecs with several children, latency histograms with
// real observations.
func obsRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	for i := 0; i < 12; i++ {
		c := r.Counter(fmt.Sprintf("bench_counter_%d_total", i), "synthetic counter")
		c.Add(uint64(i * 1000))
	}
	for i := 0; i < 6; i++ {
		g := r.Gauge(fmt.Sprintf("bench_gauge_%d", i), "synthetic gauge")
		g.Set(int64(i))
	}
	for i := 0; i < 4; i++ {
		v := r.CounterVec(fmt.Sprintf("bench_routes_%d_total", i), "synthetic vec", "route", "code")
		for j := 0; j < 8; j++ {
			v.With(fmt.Sprintf("/v1/route/%d", j), "200").Add(uint64(j))
		}
	}
	for i := 0; i < 4; i++ {
		h := r.HistogramVec(fmt.Sprintf("bench_latency_%d_seconds", i), "synthetic histogram", nil, "route")
		for j := 0; j < 4; j++ {
			child := h.With(fmt.Sprintf("/v1/route/%d", j))
			for k := 0; k < 100; k++ {
				child.Observe(time.Duration(k) * 37 * time.Microsecond)
			}
		}
	}
	return r
}

func benchScrapeSnapshot(b *testing.B) {
	r := obsRegistry()
	b.ReportAllocs()
	for b.Loop() {
		if snap := r.Snapshot(); len(snap.Families) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func benchScrapeProm(b *testing.B) {
	r := obsRegistry()
	b.ReportAllocs()
	for b.Loop() {
		snap := r.Snapshot()
		if err := snap.WriteProm(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
