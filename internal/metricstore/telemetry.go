package metricstore

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Process-wide store telemetry. All Store instances aggregate: the plane
// view cares about total append traffic and total resident series, not
// which store they live in. The append-path instruments are chosen to
// preserve Handle.Append's 0 allocs/op: one atomic add on the store's own
// stripe, one atomic trace-pointer load, and — only while a sampled tick
// trace is active — a pair of wall-clock reads. The two per-append
// counters are striped so stores appending on different cores do not
// contend on one process-wide cache line; every Store takes one stripe
// index at NewStore and uses it for both.
var (
	telAppends = telemetry.Default().StripedCounter("flower_store_appends_total",
		"Datapoints appended across all metric stores.")
	telEntries = telemetry.Default().Gauge("flower_store_entries",
		"Metric series resident across all metric stores.")
	telCompactionCopied = telemetry.Default().Counter("flower_store_compaction_copied_points_total",
		"Points moved by retention compaction across all metric stores.")
	telRetentionDropped = telemetry.Default().StripedCounter("flower_store_retention_dropped_total",
		"Datapoints discarded by the retention window across all metric stores.")
)

// SelfScrapeNamespace is the reserved metric namespace the self-scrape
// bridge publishes flowerd's own telemetry under. User flows must not
// publish into it.
const SelfScrapeNamespace = "Flower/Telemetry"

// IngestSnapshot publishes one telemetry snapshot into the store under
// SelfScrapeNamespace, making the plane's own signals first-class metrics
// that forecasting and regression can watch. Counters and gauges become
// one series per metric (labels folded into dimensions); histograms become
// a _count/_sum series pair (buckets would multiply cardinality for little
// forecasting value). Timestamps are the snapshot's capture time, so the
// per-metric monotonicity the store requires holds as long as snapshots
// are ingested in order.
func IngestSnapshot(s *Store, snap telemetry.Snapshot) error {
	at := snap.At
	for _, fam := range snap.Families {
		for _, m := range fam.Metrics {
			var dims map[string]string
			if len(fam.Labels) > 0 {
				dims = make(map[string]string, len(fam.Labels))
				for i, l := range fam.Labels {
					if i < len(m.LabelValues) {
						dims[l] = m.LabelValues[i]
					}
				}
			}
			if fam.Kind == telemetry.KindHistogram && m.Histogram != nil {
				if err := s.Put(SelfScrapeNamespace, fam.Name+"_count", dims, at, float64(m.Histogram.Count)); err != nil {
					return fmt.Errorf("metricstore: self-scrape %s: %w", fam.Name, err)
				}
				if err := s.Put(SelfScrapeNamespace, fam.Name+"_sum", dims, at, float64(m.Histogram.SumNanos)/float64(time.Second)); err != nil {
					return fmt.Errorf("metricstore: self-scrape %s: %w", fam.Name, err)
				}
				continue
			}
			if err := s.Put(SelfScrapeNamespace, fam.Name, dims, at, m.Value); err != nil {
				return fmt.Errorf("metricstore: self-scrape %s: %w", fam.Name, err)
			}
		}
	}
	return nil
}
