package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/metricstore"
	"repro/internal/randx"
	"repro/internal/stream"
)

// Namespace is the metric namespace the generator publishes under.
const Namespace = "Workload/Generator"

// Metric names published each tick.
const (
	MetricTargetRate     = "TargetRate"     // pattern rate, records/s
	MetricOfferedRecords = "OfferedRecords" // records offered this tick
	MetricRejected       = "RejectedRecords"
)

// ClickEvent is one synthetic click-stream record.
type ClickEvent struct {
	UserID    string
	Page      string
	Referrer  string
	UserAgent string
	At        time.Time
}

// Encode renders the event as a compact wire representation (CSV-ish); the
// simulated pipeline only cares about its size and partition key, so the
// encoding avoids fmt and time formatting — experiments push tens of
// millions of events through this path.
func (e ClickEvent) Encode() []byte {
	b := make([]byte, 0, len(e.UserID)+len(e.Page)+len(e.Referrer)+len(e.UserAgent)+16)
	b = append(b, e.UserID...)
	b = append(b, ',')
	b = append(b, e.Page...)
	b = append(b, ',')
	b = append(b, e.Referrer...)
	b = append(b, ',')
	b = append(b, e.UserAgent...)
	b = append(b, ',')
	b = strconv.AppendInt(b, e.At.Unix(), 10)
	return b
}

// GeneratorConfig parameterises a Generator.
type GeneratorConfig struct {
	Pattern Pattern
	// Users and Pages bound the synthetic population. Users are uniform
	// (spreading partition keys across shards); pages are Zipf-skewed.
	Users, Pages int
	// ZipfS is the Zipf skew parameter (>1); default 1.2.
	ZipfS float64
	// Poisson selects stochastic arrivals: the per-tick count is drawn
	// from Poisson(rate·step). When false the count is the deterministic
	// rounded mean — useful for controller experiments that need clean
	// step inputs.
	Poisson bool
	// Seed drives all randomness in the generator.
	Seed int64
	// Start is subtracted from tick times to compute pattern-elapsed time.
	Start time.Time
	// Aggregate selects the count-based fast path: instead of synthesising
	// every click event, each tick's arrival count is distributed over the
	// destination stream's shards by sampling the multinomial the
	// per-record path induces (uniform user keys → shard weights from the
	// key population). The stream sees identical statistics at O(shards)
	// instead of O(records) cost per tick. Ignored when there is no
	// destination stream.
	Aggregate bool
}

// Generator produces click events each tick and offers them to a stream.
// User IDs are uniform over the population (a website has many independent
// visitors, so partition keys spread evenly over shards); pages follow a
// Zipf distribution (a few pages get most of the traffic).
type Generator struct {
	cfg      GeneratorConfig
	rng      *rand.Rand
	pageZipf *rand.Zipf

	dest *stream.Stream

	// metrics is the per-tick publish row, interned once at construction
	// (nil when there is no store).
	metrics *metricstore.Row

	offered  int64
	rejected int64

	// Aggregate-path state: the user-key population and its per-shard
	// weights, recomputed when the destination reshards.
	pop        *stream.KeyPopulation
	weights    []float64
	weightsGen int // dest.ReshardEvents() the weights were computed at
	eventBytes int // average encoded event size for byte accounting
}

// NewGenerator builds a generator writing into dest (which may be nil; use
// Events to pull events manually).
func NewGenerator(cfg GeneratorConfig, dest *stream.Stream, ms *metricstore.Store) (*Generator, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("workload: pattern is required")
	}
	if cfg.Users <= 0 {
		cfg.Users = 10000
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 500
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Generator{
		cfg:      cfg,
		rng:      rng,
		pageZipf: rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Pages-1)),
		dest:     dest,
	}
	if ms != nil {
		g.metrics = ms.MustRow(Namespace, map[string]string{"Generator": "clickstream"},
			MetricTargetRate, MetricOfferedRecords, MetricRejected)
	}
	return g, nil
}

// Offered reports the cumulative records offered to the stream.
func (g *Generator) Offered() int64 { return g.offered }

// Rejected reports the cumulative records the stream throttled.
func (g *Generator) Rejected() int64 { return g.rejected }

// count returns the number of arrivals for a tick at the given mean.
func (g *Generator) count(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if !g.cfg.Poisson {
		return int(math.Round(mean))
	}
	return poisson(g.rng, mean)
}

// poisson draws from Poisson(mean). Knuth's method for small means; a
// normal approximation for large ones (mean > 64) keeps it O(1).
func poisson(rng *rand.Rand, mean float64) int {
	if mean > 64 {
		n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Event synthesises one click event at the given instant.
func (g *Generator) Event(now time.Time) ClickEvent {
	return ClickEvent{
		UserID:    "user-" + strconv.Itoa(g.rng.Intn(g.cfg.Users)),
		Page:      "/page/" + strconv.FormatUint(g.pageZipf.Uint64(), 10),
		Referrer:  "https://example.com",
		UserAgent: "flower-loadgen/1.0",
		At:        now,
	}
}

// Events returns the batch of events for a tick ending at now with the
// given step, without offering them anywhere.
func (g *Generator) Events(now time.Time, step time.Duration) []ClickEvent {
	elapsed := now.Sub(g.cfg.Start)
	mean := g.cfg.Pattern.Rate(elapsed) * step.Seconds()
	n := g.count(mean)
	out := make([]ClickEvent, n)
	for i := range out {
		out[i] = g.Event(now)
	}
	return out
}

// Tick generates this step's events and offers them to the destination
// stream, recording offered/rejected metrics. Events are partitioned by
// user ID, as the reference click-stream architecture does. In Aggregate
// mode the tick's count is offered through the stream's batch API with the
// same shard distribution, without materialising events.
func (g *Generator) Tick(now time.Time, step time.Duration) {
	if g.cfg.Aggregate && g.dest != nil {
		g.tickAggregate(now, step)
		return
	}
	events := g.Events(now, step)
	rejected := 0
	if g.dest != nil {
		for _, e := range events {
			if _, err := g.dest.PutRecord(now, e.UserID, e.Encode()); err != nil {
				rejected++
			}
		}
	}
	g.offered += int64(len(events))
	g.rejected += int64(rejected)
	g.publishTick(now, len(events), rejected)
}

// tickAggregate is the count-based fast path of Tick.
func (g *Generator) tickAggregate(now time.Time, step time.Duration) {
	elapsed := now.Sub(g.cfg.Start)
	mean := g.cfg.Pattern.Rate(elapsed) * step.Seconds()
	n := g.count(mean)

	if g.pop == nil {
		g.pop = stream.UniformUserPopulation(g.cfg.Users)
		g.eventBytes = len(g.Event(now).Encode())
	}
	if gen := g.dest.ReshardEvents(); g.weights == nil || gen != g.weightsGen {
		g.weights = g.pop.Weights(g.dest.Shards())
		g.weightsGen = gen
	}

	rejected := 0
	if n > 0 {
		counts := randx.Multinomial(g.rng, n, g.weights)
		_, rej, err := g.dest.PutCounts(now, counts, g.eventBytes)
		if err != nil {
			// Shard layout changed underneath us mid-tick (cannot happen
			// with the tick scheduler, but keep the invariant anyway).
			g.weights = nil
			counts = randx.MultinomialEven(g.rng, n, g.dest.ShardCount())
			_, rej, _ = g.dest.PutCounts(now, counts, g.eventBytes)
		}
		rejected = rej
	}
	g.offered += int64(n)
	g.rejected += int64(rejected)
	g.publishTick(now, n, rejected)
}

// publishTick records the per-tick generator metrics.
func (g *Generator) publishTick(now time.Time, offered, rejected int) {
	if g.metrics == nil {
		return
	}
	g.metrics.MustAppend(now, g.cfg.Pattern.Rate(now.Sub(g.cfg.Start)), float64(offered), float64(rejected))
}
