package telemetry

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestInstrumentHandlerMetricsText pins /metrics for a fixed request
// sequence byte for byte, latency samples aside: each route lists the
// codes it has served and no other, with their counts, as when every
// request registered its {route, code} counter itself.
func TestInstrumentHandlerMetricsText(t *testing.T) {
	r := NewRegistry()
	respond := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch code := req.URL.Query().Get("code"); code {
		case "":
			// Writing nothing is a 200.
		case "404":
			w.WriteHeader(http.StatusNotFound)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	})
	a := InstrumentHandler(HTTPOptions{Metrics: r}, "GET /a", respond)
	b := InstrumentHandler(HTTPOptions{Metrics: r}, "POST /b", respond)
	for _, step := range []struct {
		h   http.Handler
		url string
	}{{a, "/a"}, {a, "/a"}, {b, "/b?code=404"}, {a, "/a?code=500"}, {b, "/b"}, {a, "/a?code=404"}, {a, "/a"}} {
		step.h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, step.url, nil))
	}
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.SplitAfter(text.String(), "\n") {
		if !strings.HasPrefix(line, "tippers_http_request_seconds_") {
			kept = append(kept, line)
		}
	}
	want := `# HELP tippers_http_in_flight HTTP requests currently being served.
# TYPE tippers_http_in_flight gauge
tippers_http_in_flight 0
# HELP tippers_http_request_seconds HTTP request latency by route.
# TYPE tippers_http_request_seconds histogram
# HELP tippers_http_requests_total HTTP requests served by route and status code.
# TYPE tippers_http_requests_total counter
tippers_http_requests_total{code="200",route="GET /a"} 3
tippers_http_requests_total{code="200",route="POST /b"} 1
tippers_http_requests_total{code="404",route="GET /a"} 1
tippers_http_requests_total{code="404",route="POST /b"} 1
tippers_http_requests_total{code="500",route="GET /a"} 1
`
	if got := strings.Join(kept, ""); got != want {
		t.Fatalf("/metrics text:\n%s", got)
	}
}

// TestInstrumentHandlerConcurrentCodes serves one route from several
// goroutines at once, each status code first seen concurrently; under
// -race it checks the per-route code cache, and every request must be
// counted under its code.
func TestInstrumentHandlerConcurrentCodes(t *testing.T) {
	r := NewRegistry()
	codes := []int{200, 201, 404, 500}
	h := InstrumentHandler(HTTPOptions{Metrics: r}, "GET /a", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(codes[len(req.URL.RawQuery)%len(codes)])
	}))
	const workers, perWorker, want = 8, 200, 8 * 200 / 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/a?"+strings.Repeat("x", i%len(codes)), nil))
			}
		}()
	}
	wg.Wait()
	for _, code := range codes {
		v, ok := r.LookupValue("tippers_http_requests_total", Labels{"route": "GET /a", "code": strconv.Itoa(code)})
		if !ok || v != want {
			t.Errorf("code %d counted %v (registered %v), want %d", code, v, ok, want)
		}
	}
}

// TestInstrumentHandlerAllocs: an unsampled request through metrics
// and tracing allocates nothing: its status recorder is pooled, and
// nothing is rendered per label. A recorder per request cost 1;
// rendering {route, code} on every request cost 7 more allocations;
// separate metrics and tracing wrappers cost a second recorder and a
// request carrying an unchanged context (3 in all).
func TestInstrumentHandlerAllocs(t *testing.T) {
	o := HTTPOptions{Metrics: NewRegistry(), Tracer: NewTracer(TracerOptions{SampleOneIn: 1 << 30})}
	h := InstrumentHandler(o, "GET /a", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	w, req := httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/a", nil)
	h.ServeHTTP(w, req) // the tracer's first root is sampled
	if n := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); n > 0 {
		t.Fatalf("%.1f allocations per request, want none", n)
	}
}

// TestInstrumentHandlerFlushReachesWriter: a streaming handler's
// http.ResponseController reaches the server's writer through the one
// status recorder, as /v1/stream's SSE flushes must.
func TestInstrumentHandlerFlushReachesWriter(t *testing.T) {
	o := HTTPOptions{Metrics: NewRegistry(), Tracer: NewTracer(TracerOptions{SampleOneIn: 1})}
	h := InstrumentHandler(o, "GET /stream", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = w.Write([]byte("data: 1\n\n"))
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("flush through the middleware: %v", err)
		}
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if !rec.Flushed || rec.Body.String() != "data: 1\n\n" {
		t.Fatalf("flushed %v, body %q", rec.Flushed, rec.Body)
	}
}
