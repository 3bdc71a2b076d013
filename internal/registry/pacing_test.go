package registry

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/eventbus"
	"repro/internal/flow"
	"repro/internal/sim"
)

// TestPacedAdvanceEventsMatchResult paces a flow while another goroutine
// advances it by hand, and checks both paths against a reference harness
// of the same spec and seed stepped to the same tick: every
// flow.advanced payload (Ticks, ViolationRate, TotalCost) equals the
// reference Result's fields bit for bit, and every manual Advance returns
// the reference's whole Result. Pacer ticks build no Result, so this is
// what keeps their payloads honest. Run with -race.
func TestPacedAdvanceEventsMatchResult(t *testing.T) {
	const step = 10 * time.Second
	spec := testSpec(t, "paced")
	spec.Workload = flow.WorkloadSpec{
		Pattern: "sine", Base: 1500, Peak: 6000,
		Period: flow.Duration(2 * time.Hour), Poisson: true, Seed: 3,
	}
	opts := sim.Options{Step: step, Seed: 9}

	r := New()
	sub := r.Events().Subscribe(1<<16, 0, func(ev eventbus.Event) bool {
		return ev.Type == EventFlowAdvanced
	})
	defer sub.Close()
	f, err := r.Create("paced", spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 12 simulated seconds per 5 ms wall tick: mostly one step per pacer
	// tick, two when the carried remainder adds up.
	if err := f.StartPacing(2400, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var manual []sim.Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 40 {
			res, err := f.Advance(step)
			if err != nil {
				t.Error(err)
				return
			}
			manual = append(manual, res)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	var events []FlowAdvanced
	for deadline := time.Now().Add(time.Minute); len(events) < 400; {
		select {
		case ev := <-sub.Events():
			events = append(events, ev.Data.(FlowAdvanced))
		case <-time.After(time.Until(deadline)):
			t.Fatalf("only %d flow.advanced events before the deadline", len(events))
		}
	}
	wg.Wait()
	if err := f.StopPacing(); err != nil {
		t.Fatal(err)
	}
	for drained := false; !drained; {
		select {
		case ev := <-sub.Events():
			events = append(events, ev.Data.(FlowAdvanced))
		default:
			drained = true
		}
	}
	if n := sub.Dropped(); n > 0 {
		t.Fatalf("subscriber dropped %d events; buffer too small for the test", n)
	}
	if t.Failed() {
		return
	}
	ref, err := sim.New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	stepTo := func(ticks int) {
		t.Helper()
		if n := ticks - ref.Ticks(); n > 0 {
			if err := ref.Step(time.Duration(n) * step); err != nil {
				t.Fatal(err)
			}
		}
		if ref.Ticks() != ticks {
			t.Fatalf("reference at tick %d, want %d", ref.Ticks(), ticks)
		}
	}
	bits := math.Float64bits
	violating := 0
	for i, ev := range events {
		if i > 0 && ev.Ticks <= events[i-1].Ticks {
			t.Fatalf("event %d: ticks %d after %d", i, ev.Ticks, events[i-1].Ticks)
		}
		for len(manual) > 0 && manual[0].Ticks < ev.Ticks {
			t.Fatalf("manual advance to tick %d published no flow.advanced", manual[0].Ticks)
		}
		stepTo(ev.Ticks)
		want := ref.Result()
		if bits(ev.ViolationRate) != bits(want.ViolationRate) || bits(ev.TotalCost) != bits(want.TotalCost) {
			t.Fatalf("tick %d: event violation rate %v cost %v, Result %v and %v",
				ev.Ticks, ev.ViolationRate, ev.TotalCost, want.ViolationRate, want.TotalCost)
		}
		if !ev.SimTime.Equal(ref.Clock.Now()) {
			t.Fatalf("tick %d: event sim time %v, reference %v", ev.Ticks, ev.SimTime, ref.Clock.Now())
		}
		if len(manual) > 0 && manual[0].Ticks == ev.Ticks {
			if !reflect.DeepEqual(manual[0], want) {
				t.Fatalf("tick %d: manual Advance returned\n%+v\nreference Result\n%+v", ev.Ticks, manual[0], want)
			}
			manual = manual[1:]
		}
		if ev.ViolationRate > 0 {
			violating++
		}
	}
	if len(manual) > 0 {
		t.Fatalf("%d manual advances left unmatched, first at tick %d", len(manual), manual[0].Ticks)
	}
	if violating == 0 {
		t.Fatal("no event reported a violation; the check compared only zeros")
	}
}
