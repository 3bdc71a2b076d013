package main

import (
	"math"
	"slices"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. It sorts xs in place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// tailQuantile is the highest quantile up to 0.99 that still has at least
// ten samples beyond it, so a tail figure never rests on one or two
// outliers; with fewer than 20 samples it falls back to the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return min(0.99, 1-10/float64(n))
}

// median of xs (sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean of xs; 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// subWindows is how many equal parts the measured window is cut into for
// latency percentiles: each percentile is computed per part and the
// median over the parts is reported, so one stalled second (a collection
// on a gigabyte heap, a noisy neighbour) moves a run's figure less.
// Stalls still show in pace_fidelity and the per-layer counters.
const subWindows = 10

// obs is one latency observation: when it happened, its value, and the
// series it belongs to (for per-series baselines).
type obs struct {
	at  time.Time
	v   float64
	key string
}

// windowedPercentiles returns the medians over sub-windows of [from, to]
// of the per-sub-window median and tail. With relative set, each value is
// first taken less the smallest value of its series in the same
// sub-window. Observations outside [from, to] are ignored.
func windowedPercentiles(xs []obs, from, to time.Time, relative bool) (p50, tail float64) {
	span := to.Sub(from)
	parts := make([][]obs, subWindows)
	for _, x := range xs {
		if x.at.Before(from) || x.at.After(to) || span <= 0 {
			continue
		}
		i := min(subWindows-1, int(int64(x.at.Sub(from))*subWindows/int64(span)))
		parts[i] = append(parts[i], x)
	}
	var mids, tails []float64
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		base := make(map[string]float64)
		if relative {
			for _, x := range part {
				if b, ok := base[x.key]; !ok || x.v < b {
					base[x.key] = x.v
				}
			}
		}
		vals := make([]float64, len(part))
		for i, x := range part {
			vals[i] = x.v - base[x.key]
		}
		mids = append(mids, quantile(vals, 0.5))
		tails = append(tails, quantile(vals, tailQuantile(len(vals))))
	}
	return median(mids), median(tails)
}
