// Package telemetry is the measurement substrate for every TIPPERS
// daemon: a dependency-free metrics registry (atomic counters, gauges,
// and fixed-bucket latency histograms), Prometheus text-format
// exposition, a JSON variables endpoint, optional pprof wiring, and a
// shared log/slog setup.
//
// The paper's §V.C names enforcement overhead as the open scaling
// challenge; this package is what lets the repo *see* that overhead.
// Metric instances work standalone (they are plain atomics), so
// library users pay nothing for exposition they do not wire up; a
// daemon registers the instances it cares about into a Registry and
// mounts the registry's handlers.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is
// unusable; construct with NewCounter or Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a counter at zero.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a gauge at zero.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; safe for concurrent use).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency buckets in seconds: 50µs to 10s,
// spanning a cache-hit decision to a pathological full-store sweep.
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// stageBuckets are the buckets of a request's stage histograms: 1µs to
// 10s, since a stage can be a memo hit or a full-store query.
var stageBuckets = append([]float64{0.000001, 0.0000025, 0.000005, 0.00001, 0.000025}, DefBuckets...)

// Histogram is a fixed-bucket histogram with an implicit +Inf bucket.
// Observations and snapshots are lock-free.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper
// bounds; nil selects DefBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	h := &Histogram{bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed seconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// HistogramSnapshot is a consistent-enough read of a histogram: counts
// are loaded bucket by bucket, so a snapshot taken under concurrent
// observation may be off by in-flight increments, never corrupt.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, excluding +Inf
	Counts []uint64  // per-bucket (not cumulative), len(Bounds)+1
	Count  uint64
	Sum    float64
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the bucket containing the target rank. Values
// in the +Inf bucket clamp to the highest finite bound. Returns 0 for
// an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	target := q * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < target {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: clamp to the last finite bound.
			return s.Bounds[len(s.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = s.Bounds[i-1]
		}
		upper := s.Bounds[i]
		if c == 0 {
			return upper
		}
		// Rank position within this bucket.
		pos := (target - float64(cum-c)) / float64(c)
		return lower + (upper-lower)*pos
	}
	return s.Bounds[len(s.Bounds)-1]
}
