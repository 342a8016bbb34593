package telemetry

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels are constant labels attached to one metric instance. Two
// instances of the same metric name with different labels coexist
// (e.g. per-route request counters).
type Labels map[string]string

type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// entry is one registered metric instance.
type entry struct {
	name     string
	help     string
	labelStr string // rendered sorted label pairs, "" when unlabeled
	kind     metricKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // callback counter/gauge; nil otherwise
}

// value returns the instantaneous scalar for counter/gauge entries.
func (e *entry) value() float64 {
	switch {
	case e.fn != nil:
		return e.fn()
	case e.counter != nil:
		return float64(e.counter.Value())
	case e.gauge != nil:
		return e.gauge.Value()
	default:
		return 0
	}
}

// Registry holds metric instances for exposition. Get-or-create
// accessors make registration idempotent: asking twice for the same
// (name, labels) returns the same instance, so instrumented
// components can be wired without coordination.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry // key: name + labelStr
	order   []*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// renderLabels produces the canonical sorted {k="v",...} fragment.
func renderLabels(l Labels) string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		if !nameRe.MatchString(k) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// lookupOrAdd returns the existing entry for (name, labels) or
// installs the one built by mk. It panics on a kind mismatch — that is
// a programming error, caught by any test touching the metric.
func (r *Registry) lookupOrAdd(name, help string, labels Labels, kind metricKind, mk func() *entry) *entry {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	labelStr := renderLabels(labels)
	key := name + labelStr
	r.mu.RLock()
	e, ok := r.entries[key]
	r.mu.RUnlock()
	if ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q already registered as %s", name, e.kind))
		}
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q already registered as %s", name, e.kind))
		}
		return e
	}
	e = mk()
	e.name, e.help, e.labelStr, e.kind = name, help, labelStr, kind
	r.entries[key] = e
	r.order = append(r.order, e)
	return e
}

// Counter returns the registered counter, creating it if absent.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterWith(name, help, nil)
}

// CounterWith is Counter with constant labels.
func (r *Registry) CounterWith(name, help string, labels Labels) *Counter {
	e := r.lookupOrAdd(name, help, labels, counterKind, func() *entry {
		return &entry{counter: NewCounter()}
	})
	if e.counter == nil {
		panic(fmt.Sprintf("telemetry: metric %q is a callback counter", name))
	}
	return e.counter
}

// CounterFunc registers a callback-backed counter (for exposing an
// existing atomic total owned by a component). Re-registering the same
// (name, labels) keeps the first callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.CounterFuncWith(name, help, nil, fn)
}

// CounterFuncWith is CounterFunc with constant labels.
func (r *Registry) CounterFuncWith(name, help string, labels Labels, fn func() float64) {
	r.lookupOrAdd(name, help, labels, counterKind, func() *entry {
		return &entry{fn: fn}
	})
}

// Gauge returns the registered gauge, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeWith(name, help, nil)
}

// GaugeWith is Gauge with constant labels.
func (r *Registry) GaugeWith(name, help string, labels Labels) *Gauge {
	e := r.lookupOrAdd(name, help, labels, gaugeKind, func() *entry {
		return &entry{gauge: NewGauge()}
	})
	if e.gauge == nil {
		panic(fmt.Sprintf("telemetry: metric %q is a callback gauge", name))
	}
	return e.gauge
}

// GaugeFunc registers a callback-backed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.GaugeFuncWith(name, help, nil, fn)
}

// GaugeFuncWith is GaugeFunc with constant labels.
func (r *Registry) GaugeFuncWith(name, help string, labels Labels, fn func() float64) {
	r.lookupOrAdd(name, help, labels, gaugeKind, func() *entry {
		return &entry{fn: fn}
	})
}

// Histogram returns the registered histogram, creating it over bounds
// (nil selects DefBuckets) if absent.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramWith(name, help, nil, bounds)
}

// HistogramWith is Histogram with constant labels.
func (r *Registry) HistogramWith(name, help string, labels Labels, bounds []float64) *Histogram {
	e := r.lookupOrAdd(name, help, labels, histogramKind, func() *entry {
		return &entry{hist: NewHistogram(bounds)}
	})
	return e.hist
}

// StageHistogram returns the tippers_request_stage_seconds{path,stage}
// histogram: the time one stage of one request path took, once per
// request that ran it. A node's core and its HTTP layer each time their
// own stages into the one family.
func (r *Registry) StageHistogram(path, stage string) *Histogram {
	return r.HistogramWith("tippers_request_stage_seconds",
		"Per-request time of one stage of a request path (decode, the request manager's stages, encode).",
		Labels{"path": path, "stage": stage}, stageBuckets)
}

// RegisterHistogram attaches an externally owned histogram instance
// (a component that created its own, e.g. the observation store's
// sweep timer). First registration wins.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, h *Histogram) {
	r.lookupOrAdd(name, help, labels, histogramKind, func() *entry {
		return &entry{hist: h}
	})
}

// LookupHistogram returns the registered histogram for (name, labels),
// or false when no such instance exists (or it is not a histogram).
// Continuous evaluators (internal/slo) read histograms this way
// instead of holding instances, so a spec can name a metric that a
// component registers later.
func (r *Registry) LookupHistogram(name string, labels Labels) (*Histogram, bool) {
	key := name + renderLabels(labels)
	r.mu.RLock()
	e, ok := r.entries[key]
	r.mu.RUnlock()
	if !ok || e.kind != histogramKind || e.hist == nil {
		return nil, false
	}
	return e.hist, true
}

// LookupValue returns the instantaneous scalar of the registered
// counter or gauge for (name, labels), or false when no such instance
// exists (or it is a histogram).
func (r *Registry) LookupValue(name string, labels Labels) (float64, bool) {
	key := name + renderLabels(labels)
	r.mu.RLock()
	e, ok := r.entries[key]
	r.mu.RUnlock()
	if !ok || e.kind == histogramKind {
		return 0, false
	}
	return e.value(), true
}

// snapshotEntries returns the entries sorted by (name, labels) for
// deterministic exposition.
func (r *Registry) snapshotEntries() []*entry {
	r.mu.RLock()
	out := make([]*entry, len(r.order))
	copy(out, r.order)
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labelStr < out[j].labelStr
	})
	return out
}

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.snapshotEntries()
	lastName := ""
	for _, e := range entries {
		if e.name != lastName {
			lastName = e.name
			if e.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, strings.ReplaceAll(e.help, "\n", " ")); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
				return err
			}
		}
		if e.kind == histogramKind {
			if err := writeHistogram(w, e); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", e.name, e.labelStr, formatFloat(e.value())); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits the _bucket/_sum/_count triplet with cumulative
// bucket counts.
func writeHistogram(w io.Writer, e *entry) error {
	s := e.hist.Snapshot()
	var cum uint64
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, withLE(e.labelStr, formatFloat(b)), cum); err != nil {
			return err
		}
	}
	cum += s.Counts[len(s.Bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, withLE(e.labelStr, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", e.name, e.labelStr, formatFloat(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", e.name, e.labelStr, s.Count)
	return err
}

// withLE merges the le label into an existing label fragment.
func withLE(labelStr, le string) string {
	if labelStr == "" {
		return `{le="` + le + `"}`
	}
	return labelStr[:len(labelStr)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Sample is one metric's instantaneous value for the JSON variables
// endpoint. Exactly one of Value / Histogram is meaningful.
type Sample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Value  float64           `json:"value,omitempty"`
	// Histogram summary, present for histogram metrics.
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
	P999  float64 `json:"p999,omitempty"`
}

// Snapshot returns every metric's current value, histograms summarized
// with p50/p95/p99/p99.9 — the tail quantiles are what latency SLOs
// are written against.
func (r *Registry) Snapshot() []Sample {
	entries := r.snapshotEntries()
	out := make([]Sample, 0, len(entries))
	for _, e := range entries {
		s := Sample{Name: e.name, Kind: e.kind.String(), Labels: parseLabelStr(e.labelStr)}
		if e.kind == histogramKind {
			snap := e.hist.Snapshot()
			s.Count, s.Sum = snap.Count, snap.Sum
			s.P50, s.P95, s.P99 = snap.Quantile(0.50), snap.Quantile(0.95), snap.Quantile(0.99)
			s.P999 = snap.Quantile(0.999)
		} else {
			s.Value = e.value()
		}
		out = append(out, s)
	}
	return out
}

// parseLabelStr recovers a label map from the canonical fragment; it
// only needs to handle fragments renderLabels produced.
func parseLabelStr(s string) map[string]string {
	if s == "" {
		return nil
	}
	out := make(map[string]string)
	s = strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	for _, pair := range splitLabelPairs(s) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			continue
		}
		v = strings.TrimSuffix(strings.TrimPrefix(v, `"`), `"`)
		v = strings.ReplaceAll(v, `\n`, "\n")
		v = strings.ReplaceAll(v, `\"`, `"`)
		v = strings.ReplaceAll(v, `\\`, `\`)
		out[k] = v
	}
	return out
}

// splitLabelPairs splits on commas outside quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}
