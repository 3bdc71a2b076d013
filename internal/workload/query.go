package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/kvstore"
	"repro/internal/metricstore"
)

// QueryNamespace is the metric namespace the dashboard query generator
// publishes under.
const QueryNamespace = "Workload/Dashboard"

// Query metric names published each tick.
const (
	MetricTargetQPS        = "TargetQueriesPerSecond"
	MetricOfferedQueries   = "OfferedQueries"
	MetricThrottledQueries = "ThrottledQueries"
)

// QueryConfig parameterises a QueryGenerator.
type QueryConfig struct {
	// Pattern is the query rate (queries/second) over time.
	Pattern Pattern
	// ItemBytes is the average read size (default 1024).
	ItemBytes int
	// Poisson selects stochastic arrival counts (see GeneratorConfig).
	Poisson bool
	// Seed drives the arrival randomness.
	Seed int64
	// Start anchors pattern-elapsed time.
	Start time.Time
}

// QueryGenerator models the read side of the reference architecture [7]:
// a real-time dashboard polling the storage layer's aggregated results.
// Each tick it issues the pattern's query volume against the table,
// consuming read capacity; throttled reads are the dashboard's SLO signal.
type QueryGenerator struct {
	cfg   QueryConfig
	rng   *rand.Rand
	table *kvstore.Table

	// metrics is the per-tick publish row, interned once at construction
	// (nil when there is no store).
	metrics *metricstore.Row

	offered   int64
	throttled int64
}

// NewQueryGenerator builds a query generator reading from table.
func NewQueryGenerator(cfg QueryConfig, table *kvstore.Table, ms *metricstore.Store) (*QueryGenerator, error) {
	if cfg.Pattern == nil {
		return nil, fmt.Errorf("workload: query pattern is required")
	}
	if table == nil {
		return nil, fmt.Errorf("workload: query generator needs a table")
	}
	if cfg.ItemBytes <= 0 {
		cfg.ItemBytes = 1024
	}
	g := &QueryGenerator{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		table: table,
	}
	if ms != nil {
		g.metrics = ms.MustRow(QueryNamespace, map[string]string{"Generator": "dashboard"},
			MetricTargetQPS, MetricOfferedQueries, MetricThrottledQueries)
	}
	return g, nil
}

// Offered reports the cumulative queries issued.
func (g *QueryGenerator) Offered() int64 { return g.offered }

// Throttled reports the cumulative queries the table rejected.
func (g *QueryGenerator) Throttled() int64 { return g.throttled }

// Tick issues this step's queries and records metrics.
func (g *QueryGenerator) Tick(now time.Time, step time.Duration) {
	elapsed := now.Sub(g.cfg.Start)
	mean := g.cfg.Pattern.Rate(elapsed) * step.Seconds()
	n := 0
	if mean > 0 {
		if g.cfg.Poisson {
			n = poisson(g.rng, mean)
		} else {
			n = int(math.Round(mean))
		}
	}
	rejected := 0
	if n > 0 {
		_, rejected = g.table.ReadItemsUniform(now, n, g.cfg.ItemBytes)
	}
	g.offered += int64(n)
	g.throttled += int64(rejected)
	if g.metrics != nil {
		g.metrics.MustAppend(now, g.cfg.Pattern.Rate(elapsed), float64(n), float64(rejected))
	}
}
