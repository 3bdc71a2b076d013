package metricstore

import (
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scrapeCounter reads a counter the way /v1/telemetry does: through a
// snapshot of the default registry.
func scrapeCounter(t *testing.T, name string) uint64 {
	t.Helper()
	fam := telemetry.Default().Snapshot().Find(name)
	if fam == nil || len(fam.Metrics) != 1 {
		t.Fatalf("family %s = %+v, want one unlabeled counter", name, fam)
	}
	return uint64(fam.Metrics[0].Value)
}

// TestAppendCountersExactAcrossStores appends from many stores at once —
// more stores than counter stripes, so some share one — and requires the
// scraped totals to count every append and every retention drop.
func TestAppendCountersExactAcrossStores(t *testing.T) {
	const stores, perStore, keep = 40, 500, 100
	appendsBefore := scrapeCounter(t, "flower_store_appends_total")
	droppedBefore := scrapeCounter(t, "flower_store_retention_dropped_total")

	var wg sync.WaitGroup
	for i := 0; i < stores; i++ {
		s := NewStore()
		s.SetRetention((keep - 1) * time.Second)
		h := s.MustHandle("ns", "m", nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perStore; n++ {
				if err := h.Append(t0.Add(time.Duration(n)*time.Second), float64(n)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := scrapeCounter(t, "flower_store_appends_total") - appendsBefore; got != stores*perStore {
		t.Fatalf("appends counted %d, want %d", got, stores*perStore)
	}
	if got := scrapeCounter(t, "flower_store_retention_dropped_total") - droppedBefore; got != stores*(perStore-keep) {
		t.Fatalf("retention drops counted %d, want %d", got, stores*(perStore-keep))
	}
}
