package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage names of a tick trace, in causal order. metric_append overlaps
// controller_decision rather than following it: appends happen inside the
// advance while the controller step runs, so its time is accumulated
// separately, not a segment of the timeline.
const (
	StageSchedFire  = "sched_fire"          // scheduler fire → flow lock acquired
	StageController = "controller_decision" // elasticity controller step
	StageAppend     = "metric_append"       // metric store appends (accumulated)
	StagePublish    = "event_publish"       // flow.advanced published on the bus
	StageDelivery   = "sse_delivery"        // publish → watch transport flushed it
)

// TraceStage is one timed segment of a tick trace.
type TraceStage struct {
	Name  string
	Nanos int64
}

// Trace follows one sampled flow advance from scheduler fire to SSE
// delivery. All methods are nil-safe: the unsampled common case costs one
// nil check, so instrumentation sites never branch on sampling themselves.
//
// A trace is owned by the advancing goroutine until Publish; afterwards
// only the Tracer (under its lock) touches it. AddAppend is atomic because
// appends from concurrently advancing flows can land while this trace is
// active — a sampled trace's append time is plane-wide during its window,
// which is the honest measurement for a shared store.
type Trace struct {
	ID     uint64
	FlowID string
	// At is the wall-clock begin time; mark is the running monotonic
	// reference for stage durations.
	At   time.Time
	mark time.Time

	EventSeq    uint64
	Stages      []TraceStage
	appendNanos atomic.Int64
	appendCount atomic.Int64
	Delivered   bool
}

// Mark closes the current stage: the time since Begin (or the previous
// Mark) is recorded under name.
func (t *Trace) Mark(name string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.Stages = append(t.Stages, TraceStage{Name: name, Nanos: int64(now.Sub(t.mark))})
	t.mark = now
}

// AddAppend accumulates one metric-store append of n values and its
// duration into the trace.
// Safe to call from any goroutine while the trace is active.
func (t *Trace) AddAppend(n int, nanos int64) {
	if t == nil {
		return
	}
	t.appendNanos.Add(nanos)
	t.appendCount.Add(int64(n))
}

// TraceSnapshot is a frozen, completed (or abandoned) trace.
type TraceSnapshot struct {
	ID          uint64
	FlowID      string
	At          time.Time
	EventSeq    uint64
	Stages      []TraceStage
	AppendCount int64
	TotalNanos  int64
	Delivered   bool
}

// traceRingSize bounds how many completed traces the tracer retains.
const traceRingSize = 64

// defaultTraceEvery samples one advance in 64 — frequent enough that a
// paced flow set always has fresh traces, rare enough to be free.
const defaultTraceEvery = 64

// Tracer samples flow advances and carries each sampled trace through its
// pipeline stages. One tracer serves the whole process (see Traces); the
// fast path — the unsampled Begin — is one atomic add and a modulo.
type Tracer struct {
	every atomic.Int64
	n     atomic.Uint64

	// active is the trace currently being advanced, visible to the metric
	// store via Active for append accumulation.
	active atomic.Pointer[Trace]

	mu      sync.Mutex
	pending *Trace // published, awaiting SSE delivery
	ring    [traceRingSize]TraceSnapshot
	len     int
	next    int
}

// Traces is the process-wide tracer, paired with Default().
var Traces = NewTracer()

// NewTracer returns a tracer with the default sampling rate.
func NewTracer() *Tracer {
	tr := &Tracer{}
	tr.every.Store(defaultTraceEvery)
	return tr
}

// Every returns the current sampling rate (one advance in Every; <= 0
// means sampling is disabled).
func (tr *Tracer) Every() int { return int(tr.every.Load()) }

// SetEvery samples one advance in n (n == 1 samples every advance; n <= 0
// disables sampling).
func (tr *Tracer) SetEvery(n int) {
	tr.every.Store(int64(n))
	if n <= 0 {
		tr.active.Store(nil)
	}
}

// Begin starts a trace for this flow advance when the sampling counter
// selects it, returning nil otherwise. A previous trace still awaiting
// delivery is finalized as undelivered — at most one trace is in flight.
func (tr *Tracer) Begin(flowID string) *Trace {
	every := tr.every.Load()
	if every <= 0 {
		return nil
	}
	id := tr.n.Add(1)
	if every > 1 && id%uint64(every) != 1 {
		return nil
	}
	if tr.active.Load() != nil {
		return nil // previous sample still advancing (overlapping shards)
	}
	now := time.Now()
	t := &Trace{ID: id, FlowID: flowID, At: now, mark: now}
	tr.mu.Lock()
	if p := tr.pending; p != nil {
		tr.pending = nil
		tr.finishLocked(p)
	}
	tr.mu.Unlock()
	tr.active.Store(t)
	return t
}

// Active returns the trace currently being advanced, or nil. The metric
// store calls this on every append: one atomic load when no trace is live.
func (tr *Tracer) Active() *Trace {
	return tr.active.Load()
}

// Publish closes the event_publish stage, records the published event's
// bus sequence, and parks the trace to await SSE delivery.
func (tr *Tracer) Publish(t *Trace, seq uint64) {
	if t == nil {
		return
	}
	t.Mark(StagePublish)
	t.EventSeq = seq
	tr.active.CompareAndSwap(t, nil)
	tr.mu.Lock()
	if p := tr.pending; p != nil {
		tr.finishLocked(p)
	}
	tr.pending = t
	tr.mu.Unlock()
}

// Abandon finalizes a trace whose advance failed before publishing.
func (tr *Tracer) Abandon(t *Trace) {
	if t == nil {
		return
	}
	tr.active.CompareAndSwap(t, nil)
	tr.mu.Lock()
	tr.finishLocked(t)
	tr.mu.Unlock()
}

// MarkDelivered stamps the sse_delivery stage onto the pending trace when
// the watch transport flushes the event with the given bus sequence. The
// unmatched common case is one lock and two compares.
func (tr *Tracer) MarkDelivered(seq uint64) {
	tr.mu.Lock()
	if p := tr.pending; p != nil && p.EventSeq == seq {
		tr.pending = nil
		p.Mark(StageDelivery)
		p.Delivered = true
		tr.finishLocked(p)
	}
	tr.mu.Unlock()
}

// finishLocked freezes t into the ring. Caller holds tr.mu.
func (tr *Tracer) finishLocked(t *Trace) {
	appendNanos := t.appendNanos.Load()
	stages := make([]TraceStage, 0, len(t.Stages)+1)
	var total int64
	for _, st := range t.Stages {
		stages = append(stages, st)
		total += st.Nanos
	}
	stages = append(stages, TraceStage{Name: StageAppend, Nanos: appendNanos})
	snap := TraceSnapshot{
		ID: t.ID, FlowID: t.FlowID, At: t.At, EventSeq: t.EventSeq,
		Stages: stages, AppendCount: t.appendCount.Load(),
		TotalNanos: total, Delivered: t.Delivered,
	}
	tr.ring[tr.next] = snap
	tr.next = (tr.next + 1) % traceRingSize
	if tr.len < traceRingSize {
		tr.len++
	}
}

// Snapshot returns the completed traces, newest first.
func (tr *Tracer) Snapshot() []TraceSnapshot {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]TraceSnapshot, 0, tr.len)
	for i := 0; i < tr.len; i++ {
		idx := (tr.next - 1 - i + 2*traceRingSize) % traceRingSize
		out = append(out, tr.ring[idx])
	}
	return out
}
