package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"time"

	apiv1 "repro/api/v1"
	"repro/internal/randx"
)

// workload is one named set of inputs. Every flow is the default
// click-stream flow (peak 3000 records/s) on a 10s simulation step; the
// workloads differ in how many flows there are, how old they are, how fast
// they are paced and how hard /v1 is driven meanwhile.
type workload struct {
	name string
	why  string

	flows    int           // registered flows
	age      time.Duration // simulated time each flow is advanced by in set-up
	pace     float64       // simulated seconds per wall second
	wallTick time.Duration // pacer tick
	rate     float64       // /v1 requests per second (open loop)
	lagEvery int           // every lagEvery-th flow feeds the pace-lag figures
	// watchFlows is how many flows the SSE watch follows; 0 follows the
	// whole fleet through the multiplexed /v1/watch?types=flow.advanced.
	watchFlows int
	setupReps  int           // set-ups per run; setup_s is their median
	settle     time.Duration // pacing before the window opens
}

var workloads = []workload{
	{
		name:     "pace_fresh",
		why:      "1024 fresh flows paced one step per 20ms tick: fixed per-advance cost in sched, registry, eventbus and the substrates dominates",
		flows:    1024,
		age:      10 * time.Second, // one warm-up step
		pace:     500,
		wallTick: 20 * time.Millisecond,
		// A light /v1 probe (status, queries, tunes) measures how the
		// API answers while the scheduler is saturated with advances.
		rate:       50,
		lagEvery:   16,
		watchFlows: 8,
		setupReps:  3,
		settle:     time.Second,
	},
	{
		name:       "pace_aged",
		why:        "8 flows aged 30 simulated days, paced one step per 20ms tick: costs that grow with flow age (history scans, metric columns, GC) dominate",
		flows:      8,
		age:        30 * 24 * time.Hour,
		pace:       500,
		wallTick:   20 * time.Millisecond,
		rate:       50,
		lagEvery:   1,
		watchFlows: 8,
		setupReps:  3,
		settle:     time.Second,
	},
	{
		name:       "api_mixed",
		why:        "64 day-old flows paced 3 steps per 500ms tick under 300 req/s of open-loop /v1 queries, reads and WAL-fsynced tunes plus an SSE watch",
		flows:      64,
		age:        24 * time.Hour,
		pace:       60,
		wallTick:   500 * time.Millisecond,
		rate:       300,
		lagEvery:   1,
		watchFlows: 0,
		setupReps:  3,
		settle:     time.Second,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simStep is every flow's simulation tick.
const simStep = 10 * time.Second

// flowID names flow i so that globs address fixed-size groups: "b03-*"
// is a block of 64 flows (the fleet query), "b03-g2-*" a group of 16 (the
// join query).
func flowID(i int) string { return fmt.Sprintf("b%02d-g%d-f%02d", i/64, (i/16)%4, i%16) }

// flowSeed derives flow i's simulation seed from the benchmark seed.
func flowSeed(seed int64, i int) int64 { return randx.DeriveSeed(seed, 1, int64(i)) }

// The /v1 request mix: route name and share of requests.
var mix = []struct {
	route string
	share int // percent
}{
	{"query_dash", 30},
	{"query_fleet", 10},
	{"query_join", 5},
	{"batch_query", 15},
	{"status", 25},
	{"decisions", 5},
	{"tune", 10},
}

// routeNames lists every timed route: the mix plus the once-a-second
// Prometheus scrape.
var routeNames = []string{"query_dash", "query_fleet", "query_join", "batch_query", "status", "decisions", "tune", "telemetry"}

// queryRoutes are the routes answered by POST /v1/query.
var queryRoutes = []string{"query_dash", "query_fleet", "query_join"}

// request is one pre-built /v1 call with its due offset from the window
// start.
type request struct {
	route  string
	due    time.Duration
	method string
	path   string
	body   []byte
}

func dashQuery(id string) string {
	return "select flow=" + id + " ns=Analytics/Compute name=CPUUtilization | window 1h | resample 1m avg"
}

func fleetQuery(block int) string {
	return fmt.Sprintf("select flow=b%02d-* ns=Ingestion/Stream name=WriteUtilization | window 10m | agg avg", block)
}

func joinQuery(block, group int) string {
	g := fmt.Sprintf("b%02d-g%d-*", block, group)
	return "select flow=" + g + " ns=Analytics/Compute name=CPUUtilization | window 1h | resample 1m avg" +
		" | join 1m l/r (select flow=" + g + " ns=Analytics/Compute name=VMCount | window 1h | resample 1m avg) | agg max"
}

// batchMetrics are the series batch_query selectors draw from.
var batchMetrics = [][2]string{
	{"Analytics/Compute", "CPUUtilization"},
	{"Analytics/Compute", "VMCount"},
	{"Ingestion/Stream", "WriteUtilization"},
	{"Ingestion/Stream", "IncomingRecords"},
	{"Storage/KVStore", "WriteUtilization"},
	{"Storage/KVStore", "ConsumedWriteCapacityUnits"},
}

var tuneKinds = []string{"ingestion", "analytics", "storage"}

// plan is everything the seed decides for one run: the oracle flows and
// the request schedule.
type plan struct {
	oracle   [2]int // flows never tuned, checked against a fresh simulator
	requests []request
}

// makePlan draws the request schedule for a window of length window: the
// mix at a constant rate plus one Prometheus scrape per second. Routes,
// target flows, tune layers and tune values all come from seed.
func makePlan(w workload, seed int64, window time.Duration) plan {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6e32656265))
	var p plan
	p.oracle[0] = rng.IntN(w.flows)
	p.oracle[1] = (p.oracle[0] + 1 + rng.IntN(w.flows-1)) % w.flows
	blocks := (w.flows + 63) / 64
	groupsIn := func(block int) int { return min(4, (w.flows-block*64+15)/16) }

	n := int(w.rate * window.Seconds())
	gap := time.Duration(float64(time.Second) / w.rate)
	for i := 0; i < n; i++ {
		r := request{due: time.Duration(i) * gap}
		pick := rng.IntN(100)
		for _, m := range mix {
			if pick < m.share {
				r.route = m.route
				break
			}
			pick -= m.share
		}
		target := flowID(rng.IntN(w.flows))
		switch r.route {
		case "query_dash":
			r.method, r.path, r.body = http.MethodPost, "/v1/query", mustJSON(apiv1.QueryRequest{Q: dashQuery(target)})
		case "query_fleet":
			r.method, r.path, r.body = http.MethodPost, "/v1/query", mustJSON(apiv1.QueryRequest{Q: fleetQuery(rng.IntN(blocks))})
		case "query_join":
			b := rng.IntN(blocks)
			r.method, r.path, r.body = http.MethodPost, "/v1/query", mustJSON(apiv1.QueryRequest{Q: joinQuery(b, rng.IntN(groupsIn(b)))})
		case "batch_query":
			var req apiv1.BatchQueryRequest
			for range 16 {
				m := batchMetrics[rng.IntN(len(batchMetrics))]
				req.Queries = append(req.Queries, apiv1.BatchQuerySelector{
					Flow: flowID(rng.IntN(w.flows)), Namespace: m[0], Name: m[1],
					Stat: "avg", Window: "1h", Period: "1m",
				})
			}
			r.method, r.path, r.body = http.MethodPost, "/v1/metrics:batchQuery", mustJSON(req)
		case "status":
			r.method, r.path = http.MethodGet, "/v1/flows/"+target+"/status"
		case "decisions":
			r.method, r.path = http.MethodGet, "/v1/flows/"+target+"/layers/analytics/decisions"
		case "tune":
			t := skipOracle(rng.IntN(w.flows-2), p.oracle)
			ref := 55 + 10*rng.Float64()
			r.method = http.MethodPost
			r.path = "/v1/flows/" + flowID(t) + "/layers/" + tuneKinds[rng.IntN(len(tuneKinds))] + "/controller"
			r.body = mustJSON(apiv1.TuneRequest{Ref: &ref})
		}
		p.requests = append(p.requests, r)
	}
	for s := time.Duration(0); s < window; s += time.Second {
		p.requests = append(p.requests, request{
			route: "telemetry", due: s + gap/2,
			method: http.MethodGet, path: "/v1/telemetry?format=prom",
		})
	}
	sort.SliceStable(p.requests, func(i, j int) bool { return p.requests[i].due < p.requests[j].due })
	return p
}

// skipOracle maps t in [0, flows-2) onto the flows that are not oracle
// flows, preserving order.
func skipOracle(t int, oracle [2]int) int {
	lo, hi := min(oracle[0], oracle[1]), max(oracle[0], oracle[1])
	if t >= lo {
		t++
	}
	if t >= hi {
		t++
	}
	return t
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed wire types are marshalled here
	}
	return b
}
