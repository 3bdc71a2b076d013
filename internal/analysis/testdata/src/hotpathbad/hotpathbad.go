// Package hotpathbad is flowervet testdata: a package opted onto the
// per-tick path that calls the map-keyed store wrappers and resolves
// metric identities inside loops.
//
//flowervet:hotpath
package hotpathbad

import (
	"fmt"
	"time"

	"repro/internal/metricstore"
)

// PublishTick publishes through the map-keyed wrapper.
func PublishTick(s *metricstore.Store, at time.Time, v float64) error {
	return s.Put("Ingestion/Stream", "IncomingRecords", nil, at, v) // want "map-keyed Store.Put"
}

// ReadLoop resolves a handle per iteration, building the key with
// fmt.Sprintf each time.
func ReadLoop(s *metricstore.Store, names []string) int {
	n := 0
	for _, name := range names {
		if _, ok := s.Lookup("Ingestion/Stream", fmt.Sprintf("m-%s", name), nil); ok { // want "Store.Lookup inside a loop" "fmt.Sprintf builds part of a metric identity"
			n++
		}
	}
	return n
}

// IDsPerTick builds metric identities per iteration by concatenation.
func IDsPerTick(keys []string) []metricstore.MetricID {
	var out []metricstore.MetricID
	for _, k := range keys {
		out = append(out, metricstore.MetricID{Namespace: "ns", Name: "m-" + k}) // want "MetricID built inside a loop" "string concatenation"
	}
	return out
}

// RowsPerTick interns a row per iteration instead of once at build time.
func RowsPerTick(s *metricstore.Store, streams []string) int {
	n := 0
	for _, name := range streams {
		if _, err := s.Row("Ingestion/Stream", map[string]string{"StreamName": "s-" + name}, "IncomingRecords"); err == nil { // want "Store.Row inside a loop" "string concatenation"
			n++
		}
		s.MustRow("Analytics/Compute", nil, fmt.Sprintf("m-%s", name)) // want "Store.MustRow inside a loop" "fmt.Sprintf builds part of a metric identity"
	}
	return n
}
