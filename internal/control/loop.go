package control

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metricstore"
	"repro/internal/timeseries"
)

// Sensor provides the monitored measurement for a control loop — "the
// sensor module is responsible for providing resource usage stats as per
// the specified monitoring window" (§2).
type Sensor interface {
	// Measure aggregates the monitored signal over the window ending at
	// now.
	Measure(now time.Time, window time.Duration) (float64, error)
	// Name identifies the sensor.
	Name() string
}

// Actuator applies allocation changes — "the actuator is capable of
// executing the controllers' commands, such as adding or removing VMs and
// increasing or decreasing number of Shards" (§2).
type Actuator interface {
	// Value reports the current allocation.
	Value() float64
	// Set requests the allocation v (implementations clamp to bounds).
	Set(now time.Time, v float64) error
	// Bounds reports the valid allocation range.
	Bounds() (min, max float64)
	// Name identifies the actuator.
	Name() string
}

// MetricSensor reads a statistic of a metric-store metric, exactly as
// Flower's sensors read CloudWatch. The metric is resolved to a store
// handle on first successful measurement; after that each Measure is a
// single-pass windowed aggregation with no copying or key construction.
type MetricSensor struct {
	Store      *metricstore.Store
	Namespace  string
	Metric     string
	Dimensions map[string]string
	Stat       timeseries.Agg

	// handle is the lazily resolved hot-path reference. Lazy because the
	// simulated substrate only registers the metric on its first tick,
	// after the loops are built.
	handle *metricstore.Handle
}

// Name implements Sensor.
func (s *MetricSensor) Name() string { return s.Namespace + "/" + s.Metric }

// Measure implements Sensor: the chosen statistic of the raw datapoints in
// [now−window, now].
func (s *MetricSensor) Measure(now time.Time, window time.Duration) (float64, error) {
	if s.handle == nil {
		h, ok := s.Store.Lookup(s.Namespace, s.Metric, s.Dimensions)
		if !ok {
			return 0, fmt.Errorf("control: no such metric for sensor %s", s.Name())
		}
		s.handle = h
	}
	v, n := s.handle.Stat(now.Add(-window), now.Add(time.Nanosecond), s.Stat)
	if n == 0 {
		return 0, fmt.Errorf("control: sensor %s has no datapoints in window", s.Name())
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("control: sensor %s produced NaN", s.Name())
	}
	return v, nil
}

// FuncActuator adapts getter/setter closures into an Actuator; the
// simulation harness uses it to bind loops to stream/compute/kvstore
// resize methods.
type FuncActuator struct {
	ActuatorName string
	Get          func() float64
	Apply        func(now time.Time, v float64) error
	Min, Max     float64
}

// Name implements Actuator.
func (a *FuncActuator) Name() string { return a.ActuatorName }

// Value implements Actuator.
func (a *FuncActuator) Value() float64 { return a.Get() }

// Bounds implements Actuator.
func (a *FuncActuator) Bounds() (float64, float64) { return a.Min, a.Max }

// Set implements Actuator, clamping into bounds before applying.
func (a *FuncActuator) Set(now time.Time, v float64) error {
	if v < a.Min {
		v = a.Min
	}
	if v > a.Max {
		v = a.Max
	}
	return a.Apply(now, v)
}

// Decision records one control action for the dashboard and experiments —
// the "history of the controller's decisions" the architecture section
// calls out as a controller input.
type Decision struct {
	At       time.Time
	Measured float64
	Ref      float64
	OldU     float64
	NewU     float64
	Applied  bool   // false when the dead-band suppressed the action
	Note     string // e.g. sensor errors
}

// LoopConfig parameterises a control loop.
type LoopConfig struct {
	// Name labels the loop (typically the layer name).
	Name string
	// Ref is the desired reference measurement yr (e.g. 60% utilisation).
	Ref float64
	// Window is both the monitoring window and the control period: the
	// loop acts once per Window, on the statistics of the last Window.
	Window time.Duration
	// DeadBand suppresses actions when |y − yr| <= DeadBand, avoiding
	// resize churn at steady state. Zero means act on any error.
	DeadBand float64
	// Quantize rounds commanded values to integers before actuating
	// (shards and VMs are integral; capacity units are not).
	Quantize bool
	// PlantGuard bounds every command with the inverse-proportional plant
	// model utilisation ≈ y·u/u′ (true for all three layers, whose
	// utilisation is load over allocated capacity):
	//
	//   - a scale-out is capped at the allocation that would bring the
	//     predicted utilisation just under Ref−DeadBand, bounding
	//     overshoot;
	//   - a scale-in is floored at the allocation whose predicted
	//     utilisation is Ref+DeadBand, preventing the quantisation limit
	//     cycle where no integer allocation satisfies the dead-band and
	//     the integrator walks the layer into saturation.
	//
	// This is the same guard provider target-tracking autoscalers apply
	// before acting, and it is applied uniformly to every controller
	// type, so controller comparisons stay fair.
	PlantGuard bool
}

// Loop wires Sensor → Controller → Actuator and steps once per Window.
type Loop struct {
	cfg        LoopConfig
	controller Controller
	sensor     Sensor
	actuator   Actuator

	nextAt    time.Time
	started   bool
	decisions []Decision
	// actions counts the decisions that changed the allocation (Applied
	// with NewU != OldU), kept as Step records them so Actions is O(1)
	// however long the history grows.
	actions int

	// uCont is the controller's continuous integrator state. The actuator
	// may quantize to whole shards/VMs, but Eq. 6 integrates on the
	// continuous value, so sub-unit control steps accumulate instead of
	// being rounded away each window.
	uCont float64
	haveU bool
}

// NewLoop validates and assembles a control loop.
func NewLoop(cfg LoopConfig, c Controller, s Sensor, a Actuator) (*Loop, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("control: loop name is required")
	}
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("control: loop %q window must be positive", cfg.Name)
	}
	if cfg.DeadBand < 0 {
		return nil, fmt.Errorf("control: loop %q negative dead-band", cfg.Name)
	}
	if c == nil || s == nil || a == nil {
		return nil, fmt.Errorf("control: loop %q requires controller, sensor and actuator", cfg.Name)
	}
	return &Loop{cfg: cfg, controller: c, sensor: s, actuator: a}, nil
}

// Name returns the loop's label.
func (l *Loop) Name() string { return l.cfg.Name }

// Controller exposes the wrapped controller (for gain inspection).
func (l *Loop) Controller() Controller { return l.controller }

// Decisions returns the recorded control actions.
func (l *Loop) Decisions() []Decision { return l.decisions }

// SetRef changes the reference value at runtime (the demo lets attendees
// "adjust parameters of the controllers").
func (l *Loop) SetRef(ref float64) { l.cfg.Ref = ref }

// Ref returns the current reference.
func (l *Loop) Ref() float64 { return l.cfg.Ref }

// SetWindow changes the monitoring window / control period at runtime (the
// demo's "monitoring period" knob). Non-positive values are ignored. The
// new period takes effect from the next scheduled step.
func (l *Loop) SetWindow(w time.Duration) {
	if w > 0 {
		l.cfg.Window = w
	}
}

// Window returns the current monitoring window.
func (l *Loop) Window() time.Duration { return l.cfg.Window }

// SetDeadBand changes the action-suppression band at runtime. Negative
// values are ignored.
func (l *Loop) SetDeadBand(b float64) {
	if b >= 0 {
		l.cfg.DeadBand = b
	}
}

// DeadBand returns the current dead-band.
func (l *Loop) DeadBand() float64 { return l.cfg.DeadBand }

// Actions reports how many applied (non-suppressed) resize actions the
// loop has taken; the oscillation comparisons in E6 use it. It is a
// running count, so its cost does not grow with the decision history.
func (l *Loop) Actions() int { return l.actions }

// Tick implements simtime.Ticker: it runs one control step whenever a full
// window has elapsed since the previous one.
func (l *Loop) Tick(now time.Time, step time.Duration) {
	if !l.started {
		// First action a full window from the start so the sensor has data.
		l.nextAt = now.Add(l.cfg.Window - step)
		l.started = true
	}
	if now.Before(l.nextAt) {
		return
	}
	l.nextAt = now.Add(l.cfg.Window)
	l.Step(now)
}

// Step executes one control decision immediately.
func (l *Loop) Step(now time.Time) {
	applied := l.actuator.Value()
	if !l.haveU {
		l.uCont = applied
		l.haveU = true
	}
	y, err := l.sensor.Measure(now, l.cfg.Window)
	if err != nil {
		l.decisions = append(l.decisions, Decision{
			At: now, OldU: applied, NewU: applied, Ref: l.cfg.Ref, Note: err.Error(),
		})
		return
	}

	d := Decision{At: now, Measured: y, Ref: l.cfg.Ref, OldU: applied}
	if math.Abs(y-l.cfg.Ref) <= l.cfg.DeadBand {
		d.NewU = applied
		l.decisions = append(l.decisions, d)
		return
	}

	next := l.controller.Next(l.uCont, y, l.cfg.Ref)
	if l.cfg.PlantGuard && y > 0 && applied > 0 {
		if next > applied {
			// Predicted post-scale-out utilisation y·applied/next must
			// not undershoot the dead-band's lower edge.
			if lowRef := l.cfg.Ref - l.cfg.DeadBand; lowRef > 0 {
				if ceiling := applied * y / lowRef; next > ceiling && ceiling >= applied {
					next = ceiling
				}
			}
		} else if next < applied {
			// Predicted post-scale-in utilisation must stay inside the
			// dead-band's upper edge.
			floor := applied * y / (l.cfg.Ref + l.cfg.DeadBand)
			if next < floor {
				next = floor
			}
			if next > applied {
				next = applied
			}
		}
	}
	lo, hi := l.actuator.Bounds()
	if next < lo {
		next = lo
	}
	if next > hi {
		next = hi
	}
	l.uCont = next
	if l.cfg.Quantize {
		next = math.Round(next)
	}
	d.NewU = next
	d.Applied = true
	if err := l.actuator.Set(now, next); err != nil {
		d.Applied = false
		d.Note = err.Error()
	}
	if d.Applied && d.NewU != d.OldU {
		l.actions++
	}
	l.decisions = append(l.decisions, d)
}
