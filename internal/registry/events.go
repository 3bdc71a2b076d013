package registry

import (
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/eventbus"
	"repro/internal/flow"
	"repro/internal/sim"
)

// Watch event types published on the registry's bus. The topic of every
// event is the flow's registry id, so subscribers filter per flow.
const (
	EventFlowCreated  = "flow.created"
	EventFlowDeleted  = "flow.deleted"
	EventFlowAdvanced = "flow.advanced"
	EventFlowDecision = "flow.decision"
	EventFlowPace     = "flow.pace"
)

// FlowLifecycle is the payload of flow.created / flow.deleted.
type FlowLifecycle struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
}

// FlowAdvanced is the payload of flow.advanced: one completed Advance
// (manual or pacer tick) with the flow's cumulative run counters.
type FlowAdvanced struct {
	ID            string    `json:"id"`
	Advanced      string    `json:"advanced"`
	SimTime       time.Time `json:"sim_time"`
	Ticks         int       `json:"ticks"`
	ViolationRate float64   `json:"violation_rate"`
	TotalCost     float64   `json:"total_cost_usd"`
}

// FlowDecision is the payload of flow.decision: one control action a
// layer's controller took during an advance.
type FlowDecision struct {
	ID       string    `json:"id"`
	Layer    string    `json:"layer"`
	At       time.Time `json:"at"`
	Measured float64   `json:"measured"`
	Ref      float64   `json:"ref"`
	OldU     float64   `json:"old_allocation"`
	NewU     float64   `json:"new_allocation"`
	Applied  bool      `json:"applied"`
	Note     string    `json:"note,omitempty"`
}

// FlowPace is the payload of flow.pace: the pacer was started or stopped.
// Error is set when the pacer died on its own because advancing failed.
type FlowPace struct {
	ID      string  `json:"id"`
	Running bool    `json:"running"`
	Pace    float64 `json:"pace,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Events returns the registry's event bus: every flow lifecycle change,
// advance, controller decision and pacer transition is published on it,
// with the flow id as the topic. The HTTP watch endpoints subscribe here.
func (r *Registry) Events() *eventbus.Bus { return r.bus }

// decisionMark snapshots how many decisions each control loop has
// recorded, indexed like sim.LoopKinds, so the new ones an advance
// produced can be published after it. A fixed array: taking the mark on
// every advance allocates nothing.
type decisionMark [len(sim.LoopKinds)]int

// markDecisions must run under f.mu.
func markDecisions(m *core.Manager) decisionMark {
	var marks decisionMark
	loops := m.Harness().Loops
	for i, kind := range sim.LoopKinds {
		if loop, ok := loops[kind]; ok {
			marks[i] = len(loop.Decisions())
		}
	}
	return marks
}

// newDecisions must run under f.mu; it copies the decisions recorded since
// the mark so they can be published outside the lock.
func newDecisions(m *core.Manager, marks decisionMark) map[flow.LayerKind][]control.Decision {
	var out map[flow.LayerKind][]control.Decision
	loops := m.Harness().Loops
	for i, kind := range sim.LoopKinds {
		loop, ok := loops[kind]
		if !ok {
			continue
		}
		if all := loop.Decisions(); len(all) > marks[i] {
			if out == nil {
				out = make(map[flow.LayerKind][]control.Decision)
			}
			out[kind] = append([]control.Decision(nil), all[marks[i]:]...)
		}
	}
	return out
}

// publishAdvance emits the flow.advanced event plus one flow.decision per
// control action the advance produced, returning the flow.advanced event's
// bus sequence (0 when the flow has no bus) so the tick tracer can match
// the event's SSE delivery. Advance calls it under f.mu so concurrent
// advances publish in simulation order; that is safe because Publish never
// blocks on subscribers. The payload's counters come from the harness's
// O(1) readers, so publishing builds no sim.Result.
func (f *Flow) publishAdvance(d time.Duration, h *sim.Harness, decided map[flow.LayerKind][]control.Decision) uint64 {
	if f.bus == nil {
		return 0
	}
	seq := f.bus.Publish(EventFlowAdvanced, f.id, FlowAdvanced{
		ID:            f.id,
		Advanced:      d.String(),
		SimTime:       h.Clock.Now(),
		Ticks:         h.Ticks(),
		ViolationRate: h.ViolationRate(),
		TotalCost:     h.Meter.Total(),
	})
	for kind, ds := range decided {
		for _, dec := range ds {
			f.bus.Publish(EventFlowDecision, f.id, FlowDecision{
				ID:       f.id,
				Layer:    string(kind),
				At:       dec.At,
				Measured: dec.Measured,
				Ref:      dec.Ref,
				OldU:     dec.OldU,
				NewU:     dec.NewU,
				Applied:  dec.Applied,
				Note:     dec.Note,
			})
		}
	}
	return seq
}
