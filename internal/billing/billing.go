// Package billing implements the price book and cost meter of the
// reproduction. The paper's resource-share optimizer (§3.2, Eq. 4) needs a
// cost dimension c_d for every resource type across the three layers, and
// the cost-saving experiment (E5, motivated by [15]) needs running cost
// accounting of a managed flow.
//
// Prices are expressed per resource-hour, mirroring AWS's billing model
// for the three services the paper uses (shard-hours for Kinesis,
// instance-hours for EC2/Storm, capacity-unit-hours for DynamoDB).
package billing

import (
	"fmt"
	"time"

	"repro/internal/metricstore"
)

// Namespace is the metric namespace the meter publishes under.
const Namespace = "Billing"

// Metric names published each tick.
const (
	MetricTickCost       = "TickCost"       // dollars accrued this tick
	MetricCumulativeCost = "CumulativeCost" // dollars since start
	MetricRunRate        = "HourlyRunRate"  // dollars/hour at current allocation
)

// PriceBook maps resource kinds to a dollar price per resource-hour.
// Defaults follow the 2017-era us-east-1 public prices the paper's demo
// would have paid.
type PriceBook struct {
	ShardHour float64 // Kinesis shard-hour
	VMHour    float64 // EC2 m4.large-class instance-hour
	WCUHour   float64 // DynamoDB write-capacity-unit-hour
	RCUHour   float64 // DynamoDB read-capacity-unit-hour
}

// DefaultPriceBook returns 2017-era public on-demand prices (USD).
func DefaultPriceBook() PriceBook {
	return PriceBook{
		ShardHour: 0.015,
		VMHour:    0.10,
		WCUHour:   0.00065,
		RCUHour:   0.00013,
	}
}

// Validate rejects non-positive prices.
func (p PriceBook) Validate() error {
	if p.ShardHour <= 0 || p.VMHour <= 0 || p.WCUHour <= 0 || p.RCUHour <= 0 {
		return fmt.Errorf("billing: all prices must be positive: %+v", p)
	}
	return nil
}

// Allocation is a point-in-time resource allocation across the three
// layers of a flow.
type Allocation struct {
	Shards int
	VMs    int
	WCU    float64
	RCU    float64
}

// HourlyCost prices an allocation per hour.
func (p PriceBook) HourlyCost(a Allocation) float64 {
	return float64(a.Shards)*p.ShardHour +
		float64(a.VMs)*p.VMHour +
		a.WCU*p.WCUHour +
		a.RCU*p.RCUHour
}

// AllocationReader reports the current allocation; the simulation harness
// implements it over the live substrates.
type AllocationReader interface {
	Allocation() Allocation
}

// AllocationFunc adapts a function to AllocationReader.
type AllocationFunc func() Allocation

// Allocation calls f.
func (f AllocationFunc) Allocation() Allocation { return f() }

// Meter accrues cost over simulated time.
type Meter struct {
	prices PriceBook
	src    AllocationReader

	// metrics is the per-tick publish row, interned once at construction
	// (nil when there is no store).
	metrics *metricstore.Row

	total float64
	peak  float64 // highest hourly run rate observed
}

// NewMeter builds a meter reading allocations from src each tick.
func NewMeter(prices PriceBook, src AllocationReader, ms *metricstore.Store) (*Meter, error) {
	if err := prices.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("billing: allocation reader is required")
	}
	m := &Meter{
		prices: prices,
		src:    src,
	}
	if ms != nil {
		m.metrics = ms.MustRow(Namespace, map[string]string{"Meter": "flow"},
			MetricTickCost, MetricCumulativeCost, MetricRunRate)
	}
	return m, nil
}

// Total reports the cumulative cost in dollars.
func (m *Meter) Total() float64 { return m.total }

// PeakRunRate reports the highest hourly run rate seen.
func (m *Meter) PeakRunRate() float64 { return m.peak }

// Prices returns the meter's price book.
func (m *Meter) Prices() PriceBook { return m.prices }

// Tick accrues one step of cost at the current allocation.
func (m *Meter) Tick(now time.Time, step time.Duration) {
	rate := m.prices.HourlyCost(m.src.Allocation())
	cost := rate * step.Hours()
	m.total += cost
	if rate > m.peak {
		m.peak = rate
	}
	if m.metrics != nil {
		m.metrics.MustAppend(now, cost, m.total, rate)
	}
}
