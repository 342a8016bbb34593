package telemetry

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"log/slog"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleOneIn: 1})
	ctx, span := tr.StartRoot(context.Background(), "root")
	if span == nil {
		t.Fatal("SampleOneIn=1 must sample every root")
	}
	sc, ok := SpanContextFrom(ctx)
	if !ok || !sc.Valid() || !sc.Sampled {
		t.Fatalf("context span context = %+v, ok=%v", sc, ok)
	}
	h := sc.Traceparent()
	parsed, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", h, err)
	}
	if parsed != sc {
		t.Fatalf("round trip mismatch: %+v != %+v", parsed, sc)
	}
	// Unsampled flag round-trips too.
	sc.Sampled = false
	parsed, err = ParseTraceparent(sc.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Sampled {
		t.Fatal("flags 00 parsed as sampled")
	}
}

func TestTraceparentMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	// Future version with trailing field is accepted.
	if _, err := ParseTraceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); err != nil {
		t.Fatalf("future version rejected: %v", err)
	}
	cases := map[string]string{
		"empty":             "",
		"truncated":         valid[:40],
		"bad separators":    "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01",
		"version ff":        "ff" + valid[2:],
		"non-hex version":   "zz" + valid[2:],
		"non-hex trace id":  "00-zaf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"non-hex span id":   "00-0af7651916cd43dd8448eb211c80319c-z7ad6b7169203331-01",
		"zero trace id":     "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"zero span id":      "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"non-hex flags":     valid[:53] + "zz",
		"v00 trailing data": valid + "-extra",
		"future no dash":    "cc" + valid[2:] + "x",
		"uppercase all":     strings.ToUpper(valid),
		"uppercase version": "0A" + valid[2:],
		"uppercase trace":   "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"uppercase span":    "00-0af7651916cd43dd8448eb211c80319c-B7AD6B7169203331-01",
		"uppercase flags":   valid[:53] + "0F",
	}
	for name, h := range cases {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("%s: %q accepted", name, h)
		}
	}
}

func TestSpanParenting(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleOneIn: 1, RingSize: 16})
	ctx, root := tr.StartRoot(context.Background(), "root")
	ctx, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(ctx, "grandchild")
	for _, s := range []*Span{grand, child, root} {
		if s == nil {
			t.Fatal("sampled span is nil")
		}
		s.SetAttr("k", "v")
		s.End()
	}
	if child.TraceID != root.TraceID || grand.TraceID != root.TraceID {
		t.Fatal("trace id not inherited")
	}
	if child.ParentID != root.SpanID || grand.ParentID != child.SpanID {
		t.Fatal("parent links wrong")
	}
	spans := tr.Trace(root.TraceID)
	if len(spans) != 3 {
		t.Fatalf("Trace returned %d spans, want 3", len(spans))
	}
	sums := tr.RecentTraces(10)
	if len(sums) != 1 || sums[0].Root != "root" || sums[0].Spans != 3 {
		t.Fatalf("RecentTraces = %+v", sums)
	}
}

func TestStartSpanUnsampledAndNil(t *testing.T) {
	var nilTracer *Tracer
	ctx, span := nilTracer.StartRoot(context.Background(), "x")
	if span != nil {
		t.Fatal("nil tracer returned a span")
	}
	span.SetAttr("a", "b") // must not panic
	span.SetAttrInt("n", 1)
	span.End()
	if got := nilTracer.RecentTraces(5); got != nil {
		t.Fatalf("nil tracer RecentTraces = %v", got)
	}

	tr := NewTracer(TracerOptions{SampleOneIn: 1 << 30})
	ctx, span = tr.StartRoot(context.Background(), "root")
	if span == nil {
		// First root is always sampled (counter starts at the boundary);
		// take a second, which must not be.
		t.Fatal("first root should sample")
	}
	ctx2, span2 := tr.StartRoot(context.Background(), "root2")
	if span2 != nil {
		t.Fatal("second root sampled at 1 in 2^30")
	}
	if _, ok := SpanContextFrom(ctx2); ok {
		t.Fatal("unsampled root must leave ctx unchanged (no span context, no allocation)")
	}
	if _, child := tr.StartSpan(ctx2, "child"); child != nil {
		t.Fatal("child of unsampled root must be nil")
	}
	_ = ctx
}

func TestSamplingRate(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleOneIn: 4})
	sampled := 0
	for i := 0; i < 100; i++ {
		if _, s := tr.StartRoot(context.Background(), "r"); s != nil {
			sampled++
			s.End()
		}
	}
	if sampled != 25 {
		t.Fatalf("sampled %d of 100 at 1-in-4, want 25", sampled)
	}
}

// TestRingEvictionConcurrent hammers the ring from many goroutines
// (run under -race): the ring must never hold more than its capacity,
// every surviving slot must be a fully ended span, and the recorded
// counter must account for every End.
func TestRingEvictionConcurrent(t *testing.T) {
	const ringSize, workers, perWorker = 64, 8, 1000
	tr := NewTracer(TracerOptions{SampleOneIn: 1, RingSize: ringSize})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ctx, root := tr.StartRoot(context.Background(), "root")
				_, child := tr.StartSpan(ctx, "child")
				child.SetAttrInt("i", int64(i))
				child.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()
	if got, want := tr.recorded.Load(), uint64(workers*perWorker*2); got != want {
		t.Fatalf("recorded %d spans, want %d", got, want)
	}
	spans := tr.snapshot()
	if len(spans) != ringSize {
		t.Fatalf("ring holds %d spans, want %d after eviction", len(spans), ringSize)
	}
	for _, s := range spans {
		if s.Duration < 0 || s.Name == "" {
			t.Fatalf("ring holds un-ended span %+v", s)
		}
	}
	if sums := tr.RecentTraces(10); len(sums) == 0 {
		t.Fatal("no trace summaries after concurrent recording")
	}
}

func TestTraceHandler(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleOneIn: 1})
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	var sawCtx SpanContext
	var sawSpan *Span
	h := InstrumentHandler(HTTPOptions{Tracer: tr, Slow: time.Nanosecond, Logger: logger}, "GET /ping", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawCtx, _ = SpanContextFrom(r.Context())
		sawSpan = ServerSpan(r.Context())
		sawSpan.SetAttr("handler", "ran")
		time.Sleep(time.Millisecond)
		w.WriteHeader(http.StatusTeapot)
	}))

	// Continued trace: incoming traceparent wins.
	incoming := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	req := httptest.NewRequest("GET", "/ping", nil)
	req.Header.Set("traceparent", incoming)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	echo, err := ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent: %v", err)
	}
	if echo.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("continued trace id = %s", echo.TraceID)
	}
	if sawCtx.TraceID != echo.TraceID {
		t.Fatal("handler context does not carry the continued trace")
	}
	want, _ := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	spans := tr.Trace(want)
	if len(spans) != 1 || spans[0].ParentID != "b7ad6b7169203331" {
		t.Fatalf("server span = %+v", spans)
	}
	if sawSpan == nil || sawSpan.SpanID.String() != spans[0].SpanID || !slices.Contains(spans[0].Attrs, Attr{Key: "handler", Value: "ran"}) {
		t.Fatalf("ServerSpan in the handler is not the server span: %+v", spans[0])
	}
	if !strings.Contains(logBuf.String(), "slow request") ||
		!strings.Contains(logBuf.String(), "trace_id=0af7651916cd43dd8448eb211c80319c") {
		t.Fatalf("slow log missing exemplar: %q", logBuf.String())
	}

	// Fresh trace: malformed header ignored, new root echoed.
	req = httptest.NewRequest("GET", "/ping", nil)
	req.Header.Set("traceparent", "garbage")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	fresh, err := ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("fresh traceparent: %v", err)
	}
	if fresh.TraceID == echo.TraceID {
		t.Fatal("malformed header reused the old trace id")
	}

	// No header: a new root as well.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/ping", nil))
	root, err := ParseTraceparent(rr.Header().Get("traceparent"))
	if err != nil {
		t.Fatalf("root traceparent: %v", err)
	}
	if root.TraceID == echo.TraceID || root.TraceID == fresh.TraceID {
		t.Fatal("a request without traceparent joined an earlier trace")
	}
}

// discardWriter is a ResponseWriter that allocates nothing.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w discardWriter) WriteHeader(int)             {}

// TestUnsampledTraceHandlerAllocs: an unsampled request without a
// traceparent costs the handler one allocation, the status recorder,
// and reaches the handler with its own context and no server span.
// Passing on an unchanged context in a new request cost a second;
// looking the header up by a non-canonical key cost a third.
func TestUnsampledTraceHandlerAllocs(t *testing.T) {
	tr := NewTracer(TracerOptions{SampleOneIn: 1 << 30})
	req := httptest.NewRequest("GET", "/ping", nil)
	sampled := true // the tracer's first root is
	h := InstrumentHandler(HTTPOptions{Tracer: tr}, "GET /ping", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !sampled && (r != req || ServerSpan(r.Context()) != nil) {
			t.Error("an unsampled request got a new context or a server span")
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	h.ServeHTTP(discardWriter{h: http.Header{}}, req)
	sampled = false
	w := discardWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) }); n > 1 {
		t.Fatalf("unsampled request: %v allocs, want <= 1", n)
	}
	if len(w.h) != 0 {
		t.Fatalf("unsampled request set response headers %v", w.h)
	}
}

// TestQuantileTailFewSamples pins the p99/p99.9 estimator edges when
// a histogram holds too few samples for the tail to be populated.
func TestQuantileTailFewSamples(t *testing.T) {
	empty := NewHistogram(nil).Snapshot()
	if got := empty.Quantile(0.999); got != 0 {
		t.Fatalf("empty p99.9 = %v, want 0", got)
	}

	// One sample: every quantile lands in that sample's bucket.
	h := NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got := s.Quantile(q)
		if got <= 0.001 || got > 0.01 {
			t.Fatalf("single-sample q%v = %v, want within (0.001, 0.01]", q, got)
		}
	}

	// Ten identical fast samples: p99.9 must not exceed the bucket that
	// holds them (the tail cannot be invented from thin air).
	h = NewHistogram([]float64{0.001, 0.01, 0.1})
	for i := 0; i < 10; i++ {
		h.Observe(0.0005)
	}
	if got := h.Snapshot().Quantile(0.999); got > 0.001 {
		t.Fatalf("p99.9 of 10 sub-millisecond samples = %v, want <= 0.001", got)
	}

	// Overflow samples clamp to the highest finite bound.
	h = NewHistogram([]float64{0.001, 0.01, 0.1})
	h.Observe(5)
	if got := h.Snapshot().Quantile(0.999); got != 0.1 {
		t.Fatalf("+Inf-bucket p99.9 = %v, want clamp to 0.1", got)
	}
}
