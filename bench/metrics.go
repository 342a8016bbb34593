package main

// Metric names and units (BENCHMARK.json repeats them with the bounds;
// TestBenchmarkJSONMatches keeps the two in step) and the estimators
// behind them.

import (
	"math"
	"sort"
)

type metricDef struct {
	Name, Unit string
	Higher     bool // true: a larger value is better
}

// endToEndMetrics are gated: each has a bound in BENCHMARK.json. They
// are what the program counts, and repeat to a few tenths of a percent
// on a host whose speed wanders by 10 - 25 % (README, "What could not be
// designed out"), plus the set-up time the benchmark contract requires.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", false},
	{"allocs_per_op", "count", false},
	{"alloc_kb_per_op", "kB", false},
	{"heap_live_mb", "MB", false},
	{"disk_bytes_per_obs", "B", false},
	{"restart_match_share", "share", true},
	{"ok_share", "share", true},
}

// nodeTimings are the whole-node timings and the peak resident set:
// what a user of the node feels, reported by every run but not gated,
// because on the calibration host the same commit disagreed with itself
// by up to 26 % on them. A traced run reports them with the per-layer
// metrics.
var nodeTimings = []metricDef{
	{"node.ops_per_s", "1/s", true},
	{"node.read_p50_ms", "ms", false},
	{"node.write_p50_ms", "ms", false},
	{"node.cpu_ms_per_op", "ms", false},
	{"node.recovery_s", "s", false},
	{"node.rss_peak_mb", "MB", false},
}

var perLayerMetrics = append(nodeTimings[:len(nodeTimings):len(nodeTimings)], []metricDef{
	{"httpapi.decode.busy_ms", "ms", false},
	{"httpapi.encode.busy_ms", "ms", false},
	{"httpapi.resp_bytes_per_op", "B", false},
	{"httpapi.read.tail_ms", "ms", false},
	{"httpapi.write.tail_ms", "ms", false},
	{"core.glue.busy_ms", "ms", false},
	{"core.occ_cache.hit_share", "share", true},
	{"query.parse.busy_ms", "ms", false},
	{"query.compile.busy_ms", "ms", false},
	{"query.execute.busy_ms", "ms", false},
	{"query.rows_scanned_per_row_out", "count", false},
	{"query.rollup_served_share", "share", true},
	{"obstore.query.busy_ms", "ms", false},
	{"obstore.query.rows_per_call", "count", false},
	{"obstore.append.busy_ms", "ms", false},
	{"obstore.sweep.busy_ms", "ms", false},
	{"obstore.checkpoint.busy_ms", "ms", false},
	{"wal.append.busy_ms", "ms", false},
	{"wal.fsyncs_per_kobs", "count", false},
	{"wal.bytes_per_obs", "B", false},
	{"wal.replay.busy_ms", "ms", false},
	{"colstore.compact.busy_ms", "ms", false},
	{"colstore.compact.max_ms", "ms", false},
	{"colstore.segments", "count", false},
	{"colstore.bytes_per_obs", "B", false},
	{"colstore.prune_share", "share", true},
	{"colstore.rollup.busy_ms", "ms", false},
	{"enforce.decide.busy_ms", "ms", false},
	{"enforce.decide.calls_per_op", "count", false},
	{"enforce.memo.hit_share", "share", true},
	{"enforce.apply.busy_ms", "ms", false},
	{"enforce.mutate.busy_ms", "ms", false},
	{"enforce.share_of_read", "share", false},
	{"privacy.kanon.busy_ms", "ms", false},
	{"privacy.suppressed_groups", "count", false},
	{"reasoner.detect.busy_ms", "ms", false},
	{"reasoner.detect.calls", "count", false},
	{"reasoner.conflicts", "count", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"trace.overhead_share", "share", false},
}...)

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	units := make(map[string]string)
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, m := range defs {
			units[m.Name] = m.Unit
		}
	}
	return units
}()

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks (the rule statistics.quantiles' inclusive
// method and numpy's default use). Empty input gives NaN.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPerMille are the candidates for a latency tail, highest first.
var tailPerMille = []int{999, 990, 950, 900, 750}

// tail reports a timing's tail as the highest candidate percentile
// that still has at least ten samples beyond it (nearest rank, so the
// count is exact); with fewer than forty samples there is none and the
// median stands in (q = 0.5).
func tail(xs []float64) (v, q float64) {
	s := sortedCopy(xs)
	for _, pm := range tailPerMille {
		if len(s)*(1000-pm) >= 10*1000 {
			return s[(len(s)*pm+999)/1000-1], float64(pm) / 1000
		}
	}
	return quantile(s, 0.5), 0.5
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
