package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	apiv1 "repro/api/v1"
)

// result is one request's outcome.
type result struct {
	route      string
	due        time.Time // when the schedule said to send it
	dispatched time.Time // when the dispatcher queued it
	start, end time.Time // send and last response byte
	status     int
	err        error
	bytes      int
	body       []byte // kept for query routes on traced runs
}

func (r result) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// loadgen drives an open loop: a dispatcher queues each request at its
// due time, whatever the state of earlier ones, and a single sender works
// the queue in arrival order over one keep-alive connection. A request's
// latency runs from its due time, so time spent queued behind a slow
// request counts.
type loadgen struct {
	client   *http.Client
	base     string
	tr       *tracer
	keepBody bool

	results []result
}

// newClient returns a client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// run sends reqs with due offsets relative to t0 and returns once every
// response is in or ctx ends.
func (g *loadgen) run(ctx context.Context, t0 time.Time, reqs []request) {
	// Sized to the number of sends, so the dispatcher never blocks and its
	// lateness measures only its own timer wake-ups.
	queue := make(chan int, len(reqs))
	g.results = make([]result, len(reqs))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range queue {
			g.send(ctx, &reqs[i], &g.results[i])
		}
	}()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := range reqs {
		due := t0.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			break
		}
		g.results[i] = result{route: reqs[i].route, due: due, dispatched: time.Now()}
		queue <- i
	}
	close(queue)
	wg.Wait()
}

func (g *loadgen) send(ctx context.Context, q *request, r *result) {
	var body io.Reader
	if q.body != nil {
		body = bytes.NewReader(q.body)
	}
	req, err := http.NewRequestWithContext(ctx, q.method, g.base+q.path, body)
	if err != nil {
		r.err = err
		return
	}
	if q.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r.start = time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		r.err, r.end = err, time.Now()
		return
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status, r.err, r.bytes = resp.StatusCode, err, len(b)
	if g.keepBody {
		r.body = b
	}
	g.tr.add("httpapi."+q.route, 0, r.start, r.end)
}

// sseEvent is one record read off the watch stream.
type sseEvent struct {
	recv    time.Time
	typ     string
	seq     uint64 // flow-bus sequence from the resume cursor (0 if none)
	at      time.Time
	dropped uint64 // for dropped markers
}

// watcher follows one SSE watch stream on its own connection,
// reconnecting with Last-Event-ID if the stream ends early.
type watcher struct {
	client *http.Client
	url    string

	mu         sync.Mutex
	events     []sseEvent
	connects   int // connection attempts
	failed     int // attempts that got no 200 stream
	reconnects int
	ready      chan struct{} // closed once the first hello arrives
}

func (w *watcher) run(ctx context.Context) {
	cursor := ""
	first := true
	for ctx.Err() == nil {
		w.mu.Lock()
		w.connects++
		if !first {
			w.reconnects++
		}
		w.mu.Unlock()
		first = false
		if err := w.stream(ctx, &cursor); err != nil && ctx.Err() == nil {
			w.mu.Lock()
			w.failed++
			w.mu.Unlock()
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
			}
		}
	}
}

func (w *watcher) stream(ctx context.Context, cursor *string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url, nil)
	if err != nil {
		return err
	}
	if *cursor != "" {
		req.Header.Set("Last-Event-ID", *cursor)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if len(data) > 0 {
				w.dispatch(data, cursor)
			}
			data = data[:0]
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
	}
	return sc.Err()
}

func (w *watcher) dispatch(data []byte, cursor *string) {
	recv := time.Now()
	var ev apiv1.Event
	if err := json.Unmarshal(data, &ev); err != nil {
		return
	}
	rec := sseEvent{recv: recv, typ: ev.Type, at: ev.At}
	if ev.ID != "" {
		*cursor = ev.ID
		rec.seq = flowSeq(ev.ID)
	}
	if ev.Type == apiv1.EventDropped {
		var d apiv1.DroppedEvent
		if json.Unmarshal(ev.Data, &d) == nil {
			rec.dropped = d.Count
		}
	}
	w.mu.Lock()
	w.events = append(w.events, rec)
	if ev.Type == apiv1.EventHello && w.ready != nil {
		close(w.ready)
		w.ready = nil
	}
	w.mu.Unlock()
}

// flowSeq extracts the flow-bus sequence from a resume cursor such as
// "f123" or "f123.x0".
func flowSeq(id string) uint64 {
	for _, part := range strings.Split(id, ".") {
		if strings.HasPrefix(part, "f") {
			n, _ := strconv.ParseUint(part[1:], 10, 64)
			return n
		}
	}
	return 0
}
