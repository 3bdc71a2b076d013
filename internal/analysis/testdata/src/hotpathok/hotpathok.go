// Package hotpathok is flowervet testdata: a per-tick package doing it
// right — the handle and the row are resolved once at build time and the
// loops append through them.
//
//flowervet:hotpath
package hotpathok

import (
	"time"

	"repro/internal/metricstore"
)

// Publisher owns its handle and its row; the identities were interned at
// build time.
type Publisher struct {
	h   *metricstore.Handle
	row *metricstore.Row
}

// NewPublisher resolves the handle and the row once, outside any loop.
func NewPublisher(s *metricstore.Store) (*Publisher, error) {
	h, err := s.Handle("Ingestion/Stream", "IncomingRecords", nil)
	if err != nil {
		return nil, err
	}
	row := s.MustRow("Analytics/Compute", nil, "CPUUtilization", "VMCount")
	return &Publisher{h: h, row: row}, nil
}

// NewRowPublisher interns one row per stream, outside any loop over ticks.
func NewRowPublisher(s *metricstore.Store, stream string) (*metricstore.Row, error) {
	return s.Row("Ingestion/Stream", map[string]string{"StreamName": stream}, "IncomingRecords", "IncomingBytes")
}

// Tick appends per tick through the prebuilt handle — no keys, no maps.
func (p *Publisher) Tick(at time.Time, vs []float64) {
	for _, v := range vs {
		p.h.MustAppend(at, v)
		at = at.Add(time.Second)
	}
}

// TickRows appends one row per tick through the prebuilt row.
func (p *Publisher) TickRows(at time.Time, cpu []float64) {
	for i, v := range cpu {
		p.row.MustAppend(at, v, float64(i))
		at = at.Add(time.Second)
	}
}
