package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeDiff is the change of a /metrics scrape over a phase.
type scrapeDiff struct{ before, after map[string]float64 }

func (d scrapeDiff) delta(series string) float64 { return d.after[series] - d.before[series] }

// sumDelta adds the deltas of every series whose name starts with prefix.
func (d scrapeDiff) sumDelta(prefix string) float64 {
	var s float64
	for k, v := range d.after {
		if strings.HasPrefix(k, prefix) {
			s += v - d.before[k]
		}
	}
	return s
}
