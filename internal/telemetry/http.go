package telemetry

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// MetricsHandler serves the registry in Prometheus text format.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// VarsHandler serves the registry as JSON (histograms summarized with
// p50/p95/p99/p99.9), in the spirit of /debug/vars.
func (r *Registry) VarsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
}

// Mount attaches the observability endpoints to mux: GET /metrics,
// GET /debug/vars, and — when enablePprof is set — the net/http/pprof
// suite under /debug/pprof/. Profiling handlers can leak internals, so
// daemons gate them behind a flag.
func (r *Registry) Mount(mux *http.ServeMux, enablePprof bool) {
	mux.Handle("GET /metrics", r.MetricsHandler())
	mux.Handle("GET /debug/vars", r.VarsHandler())
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// statusRecorder captures the response status for the middleware. One
// is taken from recorderPool per request and handed back once the
// handler has returned, when nothing may use the writer any more.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if s.status == 0 {
		s.status = http.StatusOK
	}
	return s.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flush and deadline controls through the middleware (streaming
// handlers need both).
func (s *statusRecorder) Unwrap() http.ResponseWriter {
	return s.ResponseWriter
}

// HTTPOptions selects what InstrumentHandler does around each request.
type HTTPOptions struct {
	// Metrics, when set, receives tippers_http_requests_total{route,code},
	// tippers_http_request_seconds{route} and tippers_http_in_flight.
	Metrics *Registry
	// Tracer, when set, continues the trace of an incoming W3C
	// traceparent (honoring its sampled flag) or starts a new root under
	// the head sampling decision, echoes the traceparent on the response,
	// and opens the request's server span (ServerSpan).
	Tracer *Tracer
	// Slow, when above zero, has Logger log every request that takes at
	// least Slow, with its trace ID as the exemplar that links logs to
	// the span tree.
	Slow   time.Duration
	Logger *slog.Logger
}

// InstrumentHandler wraps h, served as route, in the metrics, tracing
// and slow-request log o selects: a pooled status recorder and one
// clock read on either side of h. The request reaches h with a new context
// only when tracing changed it, which an unsampled root does not.
func InstrumentHandler(o HTTPOptions, route string, h http.Handler) http.Handler {
	if o.Metrics == nil && o.Tracer == nil && (o.Slow <= 0 || o.Logger == nil) {
		return h
	}
	r := o.Metrics
	if r == nil {
		r = NewRegistry() // counted where nobody reads: one path either way
	}
	hist := r.HistogramWith("tippers_http_request_seconds",
		"HTTP request latency by route.", Labels{"route": route}, nil)
	inFlight := r.Gauge("tippers_http_in_flight", "HTTP requests currently being served.")
	requests := &codeCounters{r: r, name: "tippers_http_requests_total", route: route, byCode: make(map[int]*Counter)}
	name := "http " + route
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		inFlight.Add(1)
		ctx, span := o.Tracer.startServer(req, name)
		cur, _ := SpanContextFrom(ctx)
		if cur.Valid() {
			w.Header().Set("Traceparent", cur.Traceparent())
		}
		if span != nil {
			span.SetAttr("http.method", req.Method)
			span.SetAttr("http.path", req.URL.Path)
			ctx = context.WithValue(ctx, serverSpanKey{}, span)
		}
		if ctx != req.Context() {
			req = req.WithContext(ctx)
		}
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, 0
		h.ServeHTTP(rec, req)
		elapsed := time.Since(t0)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
		inFlight.Add(-1)
		hist.Observe(elapsed.Seconds())
		requests.of(status).Inc()
		span.SetAttrInt("http.status", int64(status))
		span.End()
		if o.Slow > 0 && elapsed >= o.Slow && o.Logger != nil {
			args := []any{
				"route", route,
				"status", status,
				"elapsed_ms", elapsed.Milliseconds(),
				"sampled", cur.Sampled,
			}
			if cur.Valid() {
				args = append(args, "trace_id", cur.TraceID.String())
			}
			o.Logger.Warn("slow request", args...)
		}
	})
}

type serverSpanKey struct{}

// ServerSpan returns the span InstrumentHandler opened for the request
// ctx belongs to: nil when the request is unsampled, and a nil span's
// methods do nothing. A handler stamps attributes on it that describe
// the whole request.
func ServerSpan(ctx context.Context) *Span {
	s, _ := ctx.Value(serverSpanKey{}).(*Span)
	return s
}

// codeCounters resolves one route's {route, code} request counter once
// per status code, when that code is first served — so /metrics lists
// the codes a route has answered, as when each request registered its
// own — instead of rendering the labels on every request.
type codeCounters struct {
	r           *Registry
	name, route string
	mu          sync.Mutex
	byCode      map[int]*Counter
}

func (c *codeCounters) of(code int) *Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctr, ok := c.byCode[code]
	if !ok {
		ctr = c.r.CounterWith(c.name, "HTTP requests served by route and status code.",
			Labels{"route": c.route, "code": strconv.Itoa(code)})
		c.byCode[code] = ctr
	}
	return ctr
}
