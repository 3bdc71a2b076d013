package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/flow"
	"repro/internal/httpapi"
	"repro/internal/lab"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/sim"
)

// fixture is the wiring flowerd's serveHTTP builds with -data-dir: one
// scheduler, a registry and the lab engine on it, the control WAL with its
// compaction job, and the HTTP API on a loopback listener.
type fixture struct {
	plane   *sched.Scheduler
	reg     *registry.Registry
	engine  *lab.Engine
	clog    *persist.ControlLog
	compact *sched.Ticket
	srv     *httpapi.Server
	httpSrv *http.Server
	served  chan struct{} // closed when Serve returns
	base    string        // http://127.0.0.1:port
	dataDir string

	spec   flow.Spec
	flows  []*registry.Flow
	opts   []sim.Options
	probes []*probe
}

// walCompactEvery matches flowerd's compaction check interval.
const walCompactEvery = 15 * time.Second

// build materialises the fixture: flows created, aged and warmed, the WAL
// open, the server listening and every flow paced. On traced runs (tr
// non-nil) it also pins one probe job per scheduler shard and times every
// WAL call.
func build(w workload, seed int64, dataDir string, tr *tracer) (*fixture, error) {
	fx := &fixture{dataDir: dataDir}
	fx.plane = sched.New(sched.Config{})
	fx.reg = registry.New(registry.WithScheduler(fx.plane))
	fx.engine = lab.NewEngineOn(fx.plane)
	if tr != nil {
		probes, err := startProbes(fx.plane, 20*time.Millisecond)
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.probes = probes
	}

	clog, _, err := persist.OpenControlLog(dataDir, persist.ControlLogOptions{})
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("control log: %w", err)
	}
	fx.clog = clog
	checkpoint := func() *persist.ControlCheckpoint { return persist.CaptureControlState(fx.reg, fx.engine) }
	if err := clog.CompactWith(checkpoint); err != nil {
		fx.close()
		return nil, fmt.Errorf("boot checkpoint: %w", err)
	}
	if tr != nil {
		fx.reg.SetWAL(&timedWAL{log: clog, tr: tr})
	} else {
		fx.reg.SetWAL(clog)
	}
	fx.engine.SetWAL(clog)

	spec, err := flow.DefaultClickstream(3000)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.spec = spec
	fx.flows = make([]*registry.Flow, w.flows)
	fx.opts = make([]sim.Options, w.flows)
	for i := range w.flows {
		fx.opts[i] = sim.Options{Step: simStep, Seed: flowSeed(seed, i)}
		f, err := fx.reg.Create(flowID(i), spec, fx.opts[i])
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("create flow %d: %w", i, err)
		}
		fx.flows[i] = f
	}
	// Age (or warm) the flows in parallel: each is one Advance under its
	// own lock, so GOMAXPROCS workers keep every core busy.
	if err := parallel(len(fx.flows), func(i int) error {
		_, err := fx.flows[i].Advance(w.age)
		return err
	}); err != nil {
		fx.close()
		return nil, fmt.Errorf("age flows: %w", err)
	}

	tk, err := fx.plane.Periodic("persist/wal-compact", sched.ClassBatch, walCompactEvery, func(int) error {
		if clog.ShouldCompact() {
			return clog.CompactWith(checkpoint)
		}
		return nil
	}, nil)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.compact = tk

	fx.srv = httpapi.NewServer(fx.reg,
		httpapi.WithDefaultFlow(fx.flows[0].ID()),
		httpapi.WithLab(fx.engine),
		// flowerd logs every request; the benchmark pays the same
		// formatting cost but discards the lines.
		httpapi.WithLogger(log.New(io.Discard, "flowerd: http: ", 0)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.base = "http://" + ln.Addr().String()
	fx.httpSrv = &http.Server{Handler: fx.srv}
	fx.served = make(chan struct{})
	go func() {
		defer close(fx.served)
		_ = fx.httpSrv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()

	for _, f := range fx.flows {
		if err := f.StartPacing(w.pace, w.wallTick); err != nil {
			fx.close()
			return nil, fmt.Errorf("pace %s: %w", f.ID(), err)
		}
	}
	return fx, nil
}

// parallel runs fn(0..n-1) on GOMAXPROCS workers and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	workers := min(n, maxProcs())
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// stopPacing stops every pacer and waits for in-flight ticks.
func (fx *fixture) stopPacing() error {
	for _, f := range fx.flows {
		if err := f.StopPacing(); err != nil {
			return fmt.Errorf("stop pacing %s: %w", f.ID(), err)
		}
	}
	return nil
}

// close tears the fixture down in flowerd's shutdown order and removes
// its data directory. Safe on a partly built fixture.
func (fx *fixture) close() {
	if fx.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := fx.httpSrv.Shutdown(ctx); err != nil {
			fx.httpSrv.Close() // watch streams: cut them
		}
		cancel()
		<-fx.served
	}
	if fx.srv != nil {
		fx.srv.Close()
	}
	if fx.compact != nil {
		fx.compact.Stop()
	}
	for _, p := range fx.probes {
		p.ticket.Stop()
	}
	if fx.engine != nil {
		fx.engine.Close()
	}
	if fx.reg != nil {
		fx.reg.Close()
	}
	if fx.plane != nil {
		fx.plane.Close()
	}
	if fx.clog != nil {
		fx.clog.Close()
	}
	os.RemoveAll(fx.dataDir)
}
