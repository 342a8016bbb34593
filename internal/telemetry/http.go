package telemetry

import (
	"encoding/json"
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

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

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

// InstrumentHandler wraps h with per-route request count, latency, and
// status-class metrics:
//
//	<prefix>_requests_total{route,code}
//	<prefix>_request_seconds{route}
//	<prefix>_in_flight
func InstrumentHandler(r *Registry, prefix, route string, h http.Handler) http.Handler {
	hist := r.HistogramWith(prefix+"_request_seconds",
		"HTTP request latency by route.", Labels{"route": route}, nil)
	inFlight := r.Gauge(prefix+"_in_flight", "HTTP requests currently being served.")
	requests := &codeCounters{r: r, name: prefix + "_requests_total", route: route, byCode: make(map[int]*Counter)}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		inFlight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		h.ServeHTTP(rec, req)
		inFlight.Add(-1)
		hist.ObserveSince(t0)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		requests.of(rec.status).Inc()
	})
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
