package telemetry

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// This file is the tracing half of the telemetry package: spans with
// IDs, parent links, and key/value attributes, sampled lock-free into
// a bounded ring, propagated across processes with the W3C
// traceparent header. It exists so one observation or request can be
// followed across ingest → WAL → enforcement → stream fan-out → SSE
// delivery, which the metrics half cannot do (histograms aggregate;
// spans attribute).

// TraceID identifies one end-to-end trace (16 bytes, per W3C
// trace-context).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes).
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// ParseTraceID parses 32 hex digits into a TraceID.
func ParseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("telemetry: trace id must be 32 hex digits, got %d", len(s))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("telemetry: bad trace id: %w", err)
	}
	if id.IsZero() {
		return TraceID{}, errors.New("telemetry: all-zero trace id")
	}
	return id, nil
}

// SpanContext is the propagated part of a span: enough to parent a
// child span locally or in the next process over. The zero value is
// invalid.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value
// (version 00).
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ErrTraceparent is wrapped by every ParseTraceparent failure.
var ErrTraceparent = errors.New("telemetry: malformed traceparent")

// ParseTraceparent parses a W3C traceparent header value:
//
//	version "-" trace-id "-" parent-id "-" trace-flags
//	   2hex      32hex        16hex         2hex
//
// Unknown versions other than ff are accepted (forward compatibility);
// malformed values — wrong length, bad separators, anything but
// lowercase hex (the spec's HEXDIGLC), all-zero IDs, version ff — are
// rejected, and the caller starts a new trace.
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	if len(h) < 55 {
		return sc, fmt.Errorf("%w: length %d", ErrTraceparent, len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("%w: bad separators", ErrTraceparent)
	}
	var version, flags [1]byte
	if !decodeHexLC(version[:], h[0:2]) {
		return sc, fmt.Errorf("%w: version", ErrTraceparent)
	}
	if version[0] == 0xff {
		return sc, fmt.Errorf("%w: version ff", ErrTraceparent)
	}
	if version[0] == 0 && len(h) != 55 {
		// Version 00 is exactly 55 chars; future versions may append
		// fields after another dash.
		return sc, fmt.Errorf("%w: trailing data on version 00", ErrTraceparent)
	}
	if len(h) > 55 && h[55] != '-' {
		return sc, fmt.Errorf("%w: trailing data", ErrTraceparent)
	}
	if !decodeHexLC(sc.TraceID[:], h[3:35]) {
		return SpanContext{}, fmt.Errorf("%w: trace id", ErrTraceparent)
	}
	if !decodeHexLC(sc.SpanID[:], h[36:52]) {
		return SpanContext{}, fmt.Errorf("%w: span id", ErrTraceparent)
	}
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, fmt.Errorf("%w: all-zero id", ErrTraceparent)
	}
	if !decodeHexLC(flags[:], h[53:55]) {
		return SpanContext{}, fmt.Errorf("%w: flags", ErrTraceparent)
	}
	sc.Sampled = flags[0]&0x01 != 0
	return sc, nil
}

// decodeHexLC decodes the 2*len(dst) lowercase hex digits of s into
// dst, reporting false on any other byte, uppercase hex included.
func decodeHexLC(dst []byte, s string) bool {
	const digits = "0123456789abcdef"
	for i := range dst {
		hi, lo := strings.IndexByte(digits, s[2*i]), strings.IndexByte(digits, s[2*i+1])
		if hi < 0 || lo < 0 {
			return false
		}
		dst[i] = byte(hi<<4 | lo)
	}
	return true
}

type spanCtxKey struct{}

// ContextWithSpanContext returns ctx carrying sc; StartSpan parents
// new spans under it and the HTTP clients inject it as traceparent.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom extracts the current span context, if any.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok
}

// Attr is one key/value span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. A span is owned by the
// goroutine that started it and is not safe for concurrent mutation;
// End publishes it into the tracer's ring (an atomic store), after
// which it is immutable and may be read by any goroutine. All methods
// are nil-receiver-safe so unsampled code paths cost nothing.
type Span struct {
	tracer   *Tracer
	TraceID  TraceID
	SpanID   SpanID
	ParentID SpanID // zero for a root span with no remote parent
	Name     string
	Start    time.Time
	Duration time.Duration // set by End
	Attrs    []Attr
}

// SetAttr attaches a key/value attribute. No-op on a nil span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetAttrInt attaches an integer attribute. No-op on a nil span.
func (s *Span) SetAttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// End stamps the duration and records the span into the tracer's
// ring. No-op on a nil span. Call exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Duration = time.Since(s.Start)
	s.tracer.record(s)
}

// Context returns the span's propagation context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID, Sampled: true}
}

// Tracer samples spans into a bounded lock-free ring. The zero value
// is not usable; construct with NewTracer. A nil *Tracer is valid
// everywhere and records nothing, so components take a tracer without
// guarding call sites.
type Tracer struct {
	sampleN   uint64
	slots     []atomic.Pointer[Span]
	pos       atomic.Uint64
	rng       atomic.Uint64
	sampleCtr atomic.Uint64

	rootsTotal   atomic.Uint64
	rootsSampled atomic.Uint64
	recorded     atomic.Uint64
}

// TracerOptions configures NewTracer; zero fields take defaults.
type TracerOptions struct {
	// RingSize is the span ring capacity (default DefaultRingSize).
	// Old spans are evicted by new recordings.
	RingSize int
	// SampleOneIn samples one locally rooted trace in N (default
	// DefaultSampleOneIn; 1 traces everything). Traces continued from
	// an incoming traceparent honor the header's sampled flag instead.
	SampleOneIn int
}

// Defaults for TracerOptions. One-in-128 keeps tracing cost on the
// ingest+decide hot path under the 5% overhead budget
// (BenchmarkTraceOverhead) while still yielding tail exemplars.
const (
	DefaultRingSize    = 4096
	DefaultSampleOneIn = 128
)

// NewTracer returns a tracer recording into a fresh ring.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = DefaultRingSize
	}
	if opts.SampleOneIn <= 0 {
		opts.SampleOneIn = DefaultSampleOneIn
	}
	t := &Tracer{
		sampleN: uint64(opts.SampleOneIn),
		slots:   make([]atomic.Pointer[Span], opts.RingSize),
	}
	t.rng.Store(uint64(time.Now().UnixNano()) | 1)
	return t
}

// nextID is a splitmix64 step over an atomic state: fast, lock-free,
// well-distributed; not cryptographic (trace IDs are not secrets).
func (t *Tracer) nextID() uint64 {
	x := t.rng.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (t *Tracer) newSpanID() SpanID {
	for {
		var id SpanID
		v := t.nextID()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (56 - 8*i))
		}
		if !id.IsZero() {
			return id
		}
	}
}

func (t *Tracer) newTraceID() TraceID {
	for {
		var id TraceID
		hi, lo := t.nextID(), t.nextID()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (56 - 8*i))
			id[8+i] = byte(lo >> (56 - 8*i))
		}
		if !id.IsZero() {
			return id
		}
	}
}

// StartRoot begins a new trace: a head-based sampling decision (one
// in SampleOneIn), and — when sampled — a fresh trace ID carried by
// the returned context plus a root span. Unsampled roots return ctx
// unchanged and a nil span, so the 127-in-128 path allocates nothing;
// downstream StartSpan calls find no span context and no-op, which is
// the same outcome propagating an unsampled context would produce.
// Safe on a nil tracer (returns ctx unchanged, nil span).
func (t *Tracer) StartRoot(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.rootsTotal.Add(1)
	if (t.sampleCtr.Add(1)-1)%t.sampleN != 0 {
		return ctx, nil
	}
	t.rootsSampled.Add(1)
	sc := SpanContext{TraceID: t.newTraceID(), SpanID: t.newSpanID(), Sampled: true}
	return ContextWithSpanContext(ctx, sc), &Span{
		tracer:  t,
		TraceID: sc.TraceID,
		SpanID:  sc.SpanID,
		Name:    name,
		Start:   time.Now(),
	}
}

// StartSpan begins a child of the span context carried by ctx. When
// ctx carries none, or the trace is unsampled, it returns ctx
// unchanged and a nil span (whose methods no-op) — the unsampled hot
// path costs one context lookup. The returned context carries the
// child's span context for further nesting.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sc, ok := SpanContextFrom(ctx)
	if !ok || !sc.Sampled || !sc.Valid() {
		return ctx, nil
	}
	s := &Span{
		tracer:   t,
		TraceID:  sc.TraceID,
		SpanID:   t.newSpanID(),
		ParentID: sc.SpanID,
		Name:     name,
		Start:    time.Now(),
	}
	return ContextWithSpanContext(ctx, s.Context()), s
}

// record publishes an ended span into the ring, evicting the oldest.
func (t *Tracer) record(s *Span) {
	i := t.pos.Add(1) - 1
	t.slots[i%uint64(len(t.slots))].Store(s)
	t.recorded.Add(1)
}

// SpanData is the immutable JSON view of a recorded span.
type SpanData struct {
	TraceID        string    `json:"trace_id"`
	SpanID         string    `json:"span_id"`
	ParentID       string    `json:"parent_id,omitempty"`
	Name           string    `json:"name"`
	Start          time.Time `json:"start"`
	DurationMicros int64     `json:"duration_micros"`
	Attrs          []Attr    `json:"attrs,omitempty"`
}

func (s *Span) data() SpanData {
	d := SpanData{
		TraceID:        s.TraceID.String(),
		SpanID:         s.SpanID.String(),
		Name:           s.Name,
		Start:          s.Start,
		DurationMicros: s.Duration.Microseconds(),
		Attrs:          s.Attrs,
	}
	if !s.ParentID.IsZero() {
		d.ParentID = s.ParentID.String()
	}
	return d
}

// snapshot loads every recorded span currently in the ring.
func (t *Tracer) snapshot() []*Span {
	if t == nil {
		return nil
	}
	out := make([]*Span, 0, len(t.slots))
	for i := range t.slots {
		if s := t.slots[i].Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// TraceSummary is one trace as listed by GET /v1/traces: identity,
// root name, wall-clock extent, and how many of its spans are still
// in the ring.
type TraceSummary struct {
	TraceID        string    `json:"trace_id"`
	Root           string    `json:"root"`
	Start          time.Time `json:"start"`
	DurationMicros int64     `json:"duration_micros"`
	Spans          int       `json:"spans"`
}

// RecentTraces summarizes the newest n traces in the ring (newest
// first). Safe on a nil tracer.
func (t *Tracer) RecentTraces(n int) []TraceSummary {
	spans := t.snapshot()
	if len(spans) == 0 {
		return nil
	}
	byTrace := make(map[TraceID][]*Span)
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for id, group := range byTrace {
		sum := TraceSummary{TraceID: id.String(), Spans: len(group)}
		start, end := group[0].Start, group[0].Start.Add(group[0].Duration)
		root := group[0]
		// Root = a parentless span if the ring still holds one (earliest
		// wins), otherwise the earliest surviving span.
		better := func(a, b *Span) bool {
			if a.ParentID.IsZero() != b.ParentID.IsZero() {
				return a.ParentID.IsZero()
			}
			return a.Start.Before(b.Start)
		}
		for _, s := range group[1:] {
			if s.Start.Before(start) {
				start = s.Start
			}
			if e := s.Start.Add(s.Duration); e.After(end) {
				end = e
			}
			if better(s, root) {
				root = s
			}
		}
		sum.Root = root.Name
		sum.Start = start
		sum.DurationMicros = end.Sub(start).Microseconds()
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Trace returns every recorded span of one trace, parents before
// children where possible (sorted by start time). Safe on a nil
// tracer; returns nil when no span of the trace is in the ring.
func (t *Tracer) Trace(id TraceID) []SpanData {
	var out []SpanData
	for _, s := range t.snapshot() {
		if s.TraceID == id {
			out = append(out, s.data())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}

// RegisterMetrics exposes the tracer's own counters on r.
func (t *Tracer) RegisterMetrics(r *Registry) {
	if t == nil || r == nil {
		return
	}
	r.CounterFunc("tippers_trace_roots_total",
		"Locally rooted traces started (sampled or not).",
		func() float64 { return float64(t.rootsTotal.Load()) })
	r.CounterFunc("tippers_trace_roots_sampled_total",
		"Locally rooted traces that were sampled.",
		func() float64 { return float64(t.rootsSampled.Load()) })
	r.CounterFunc("tippers_trace_spans_recorded_total",
		"Spans recorded into the trace ring.",
		func() float64 { return float64(t.recorded.Load()) })
}

// InjectTraceparent stamps the context's span context, if any, onto
// an outbound request — this is what carries a trace across the
// tippersd↔irrd boundary.
func InjectTraceparent(ctx context.Context, req *http.Request) {
	if sc, ok := SpanContextFrom(ctx); ok && sc.Valid() {
		req.Header.Set("Traceparent", sc.Traceparent())
	}
}

// startServer opens a request's server span: a child of the request's
// traceparent header when it carries a valid one, else a new root under
// the head sampling decision. Safe on a nil tracer (returns the
// request's context, nil span).
func (t *Tracer) startServer(req *http.Request, name string) (context.Context, *Span) {
	ctx := req.Context()
	if t == nil {
		return ctx, nil
	}
	// Only a header that is present is parsed: a parse failure builds an
	// error, and most requests carry no traceparent at all. The key is
	// spelled canonically: net/http would otherwise allocate its
	// canonical form on every request.
	if h := req.Header.Get("Traceparent"); h != "" {
		if sc, err := ParseTraceparent(h); err == nil {
			return t.StartSpan(ContextWithSpanContext(ctx, sc), name)
		}
	}
	return t.StartRoot(ctx, name)
}
