package control

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// scriptSensor measures values drawn from rng, failing with probability
// errP.
type scriptSensor struct {
	rng  *rand.Rand
	errP float64
	ref  float64
}

func (s *scriptSensor) Name() string { return "script" }

func (s *scriptSensor) Measure(time.Time, time.Duration) (float64, error) {
	if s.rng.Float64() < s.errP {
		return 0, errors.New("sensor outage")
	}
	// Half the readings land near the reference, so dead-band holds are
	// common; the rest swing across the whole range.
	if s.rng.Intn(2) == 0 {
		return s.ref + (s.rng.Float64()-0.5)*4, nil
	}
	return s.rng.Float64() * 100, nil
}

// flakyActuator refuses a Set with probability errP, leaving its value
// unchanged.
type flakyActuator struct {
	rng  *rand.Rand
	errP float64
	v    float64
}

func (a *flakyActuator) Name() string               { return "flaky" }
func (a *flakyActuator) Value() float64             { return a.v }
func (a *flakyActuator) Bounds() (float64, float64) { return 1, 20 }

func (a *flakyActuator) Set(_ time.Time, v float64) error {
	if a.rng.Float64() < a.errP {
		return errors.New("resize refused")
	}
	a.v = v
	return nil
}

// recountActions is the definition Actions keeps a running count of.
func recountActions(ds []Decision) int {
	n := 0
	for _, d := range ds {
		if d.Applied && d.NewU != d.OldU {
			n++
		}
	}
	return n
}

func TestLoopActionsMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := 60.0
		sensor := &scriptSensor{rng: rng, errP: 0.1, ref: ref}
		act := &flakyActuator{rng: rng, errP: 0.15, v: 1 + float64(rng.Intn(20))}
		ctrl, err := NewAdaptiveGain(0.05, 0.001, 0.01, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		loop, err := NewLoop(LoopConfig{
			Name: "prop", Ref: ref, Window: time.Minute,
			DeadBand:   1 + float64(rng.Intn(3)),
			Quantize:   seed%2 == 0,
			PlantGuard: seed%3 == 0,
		}, ctrl, sensor, act)
		if err != nil {
			t.Fatal(err)
		}
		steps := 50 + rng.Intn(400)
		for i := 0; i < steps; i++ {
			loop.Step(t0.Add(time.Duration(i) * time.Minute))
			if got, want := loop.Actions(), recountActions(loop.Decisions()); got != want {
				t.Fatalf("seed %d step %d: Actions() = %d, recount = %d", seed, i, got, want)
			}
		}
		ds := loop.Decisions()
		var holds, sensorErrs, setErrs int
		for _, d := range ds {
			switch {
			case d.Note == "sensor outage":
				sensorErrs++
			case d.Note == "resize refused":
				setErrs++
			case !d.Applied:
				holds++
			}
		}
		if holds == 0 || sensorErrs == 0 || setErrs == 0 {
			t.Fatalf("seed %d: sequence lacks a case: %d holds, %d sensor errors, %d Set errors", seed, holds, sensorErrs, setErrs)
		}
	}
}

var actionsSink int

// BenchmarkLoopActions reads the action count of a loop with a long
// decision history; the cost must not depend on the history's length.
func BenchmarkLoopActions(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("decisions=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ctrl, err := NewAdaptiveGain(0.05, 0.001, 0.01, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			loop, err := NewLoop(LoopConfig{Name: "bench", Ref: 60, Window: time.Minute, DeadBand: 2, Quantize: true},
				ctrl, &scriptSensor{rng: rng, ref: 60}, &flakyActuator{rng: rng, v: 5})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				loop.Step(t0.Add(time.Duration(i) * time.Minute))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				actionsSink += loop.Actions()
			}
		})
	}
}
