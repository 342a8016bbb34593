package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

// maxBodyBytes bounds request bodies; policy documents and batches
// are small, and an unbounded read is a trivial DoS vector.
const maxBodyBytes = 10 << 20

// Server wraps a BMS with the TIPPERS REST API:
//
//	GET    /v1/policies                  list building policies
//	GET    /v1/preferences?user=U        list a user's preferences
//	PUT    /v1/preferences               set (install/replace) a preference
//	DELETE /v1/preferences/{id}          remove a preference
//	GET    /v1/notifications?user=U      drain a user's notification inbox
//	GET    /v1/conflicts                 list resolved conflicts
//	POST   /v1/observations              ingest a batch of observations
//	POST   /v1/requests/user             single-subject data request
//	POST   /v1/requests/occupancy?k=K    aggregate occupancy request
//	POST   /v1/query                     enforced SQL query (see query.go)
//	GET    /v1/segments                  columnar-tier segments and stats
//	GET    /v1/stats                     pipeline counters
//	GET    /v1/decisions?user=U&n=N      recent decision traces
//	GET    /v1/traces?n=N                recent pipeline traces (span ring)
//	GET    /v1/traces/{id}               full span tree of one trace
//	GET    /v1/healthz                   liveness probe (+ node identity)
//	GET    /v1/readyz                    readiness probe (store/WAL/stream hub)
//	GET    /v1/stream?...                enforced live stream (SSE; see stream.go)
//	GET    /v1/slo                       SLO compliance/burn-rate report (WithSLO)
type Server struct {
	bms     *core.BMS
	metrics *telemetry.Registry
	tracer  *telemetry.Tracer
	slow    time.Duration
	logger  *slog.Logger
	slo     http.Handler
	node    *HealthzDTO

	// The data endpoints' own stages, resolved by WithMetrics.
	userStages, occStages, queryStages codecStages
	ingestStages                       ingestStages

	// ingest stores one decoded observation: bms.Ingest, which a test
	// wraps to see each row as the decoder handed it out.
	ingest func(sensor.Observation) error
}

// NewServer wraps a BMS.
func NewServer(bms *core.BMS) *Server {
	return &Server{bms: bms, ingest: bms.Ingest}
}

// WithMetrics makes Handler wrap every route with per-route
// count/latency/status metrics (tippers_http_*) on r. Returns s for
// chaining.
func (s *Server) WithMetrics(r *telemetry.Registry) *Server {
	s.metrics = r
	s.userStages = newCodecStages(r, "user")
	s.occStages = newCodecStages(r, "occupancy")
	s.queryStages = newCodecStages(r, "query")
	s.ingestStages = ingestStages{codecStages: newCodecStages(r, "ingest"), append: r.StageHistogram("ingest", "append")}
	return s
}

// WithTracing makes Handler start/continue a W3C trace per request
// (middleware spans, traceparent echo) and — when slow > 0 — log
// requests at or above that threshold with their trace ID as the
// exemplar. A nil logger uses slog.Default. Returns s for chaining.
func (s *Server) WithTracing(t *telemetry.Tracer, slow time.Duration, logger *slog.Logger) *Server {
	s.tracer = t
	s.slow = slow
	if logger == nil {
		logger = slog.Default()
	}
	s.logger = logger
	return s
}

// WithSLO makes Handler serve h (an slo.Evaluator's Handler) at
// GET /v1/slo. Returns s for chaining.
func (s *Server) WithSLO(h http.Handler) *Server {
	s.slo = h
	return s
}

// WithNodeInfo makes /v1/healthz report the node's identity
// (building, population, seed) so load harnesses can verify they are
// generating the workload the node was seeded with instead of
// silently producing garbage on a mismatch. Returns s for chaining.
func (s *Server) WithNodeInfo(info HealthzDTO) *Server {
	info.Status = "ok"
	s.node = &info
	return s
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	o := telemetry.HTTPOptions{Metrics: s.metrics, Tracer: s.tracer, Slow: s.slow, Logger: s.logger}
	handle := func(pattern string, hf http.HandlerFunc) {
		mux.Handle(pattern, telemetry.InstrumentHandler(o, pattern, hf))
	}
	handle("GET /v1/policies", s.handlePolicies)
	handle("GET /v1/preferences", s.handleListPreferences)
	handle("PUT /v1/preferences", s.handleSetPreference)
	handle("DELETE /v1/preferences/{id}", s.handleDeletePreference)
	handle("GET /v1/notifications", s.handleNotifications)
	handle("GET /v1/conflicts", s.handleConflicts)
	handle("POST /v1/observations", s.handleIngest)
	handle("POST /v1/requests/user", s.handleRequestUser)
	handle("POST /v1/requests/occupancy", s.handleRequestOccupancy)
	handle("POST /v1/query", s.handleQuery)
	handle("GET /v1/segments", s.handleSegments)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/settings", s.handleSettings)
	handle("POST /v1/settings", s.handleSettings)
	handle("GET /v1/audit", s.handleAudit)
	handle("DELETE /v1/users/{id}/data", s.handleForget)
	handle("GET /v1/decisions", s.handleDecisions)
	handle("GET /v1/traces", s.handleTraces)
	handle("GET /v1/traces/{id}", s.handleTraceByID)
	handle("GET /v1/healthz", s.handleHealthz)
	handle("GET /v1/readyz", s.handleReadyz)
	handle("GET /v1/stream", s.handleStream)
	if s.slo != nil {
		handle("GET /v1/slo", s.slo.ServeHTTP)
	}
	return mux
}

// handleDecisions returns recent decision traces, newest first.
// Query: user=U filters by subject; n=N caps the count (default 50).
// (This lived at /v1/traces before pipeline tracing took that path
// over for span traces.)
func (s *Server) handleDecisions(w http.ResponseWriter, req *http.Request) {
	n := 50
	if nStr := queryValue(req, "n"); nStr != "" {
		v, err := strconv.Atoi(nStr)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", nStr))
			return
		}
		n = v
	}
	var traces []core.DecisionTrace
	if user := queryValue(req, "user"); user != "" {
		traces = s.bms.TracesForSubject(user, n)
	} else {
		traces = s.bms.RecentTraces(n)
	}
	out := make([]DecisionTraceDTO, 0, len(traces))
	for _, t := range traces {
		out = append(out, traceToDTO(t))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraces lists recent pipeline traces from the span ring,
// newest first. Query: n=N caps the count (default 50).
func (s *Server) handleTraces(w http.ResponseWriter, req *http.Request) {
	n := 50
	if nStr := queryValue(req, "n"); nStr != "" {
		v, err := strconv.Atoi(nStr)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", nStr))
			return
		}
		n = v
	}
	sums := s.bms.Tracer().RecentTraces(n)
	if sums == nil {
		sums = []telemetry.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, sums)
}

// handleTraceByID returns the full span tree of one trace (spans
// sorted by start time; parent_id links encode the tree).
func (s *Server) handleTraceByID(w http.ResponseWriter, req *http.Request) {
	id, err := telemetry.ParseTraceID(req.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	spans := s.bms.Tracer().Trace(id)
	if len(spans) == 0 {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no spans for trace %s (evicted, unsampled, or unknown)", id))
		return
	}
	writeJSON(w, http.StatusOK, spans)
}

// handleHealthz is the liveness probe: the process is serving. When
// node info is configured it rides along, so clients can check which
// building/population/seed this node simulates.
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if s.node != nil {
		writeJSON(w, http.StatusOK, *s.node)
		return
	}
	writeJSON(w, http.StatusOK, HealthzDTO{Status: "ok"})
}

// handleReadyz is the readiness probe: store open, WAL writable,
// stream hub accepting.
func (s *Server) handleReadyz(w http.ResponseWriter, req *http.Request) {
	if err := s.bms.Ready(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unavailable", "error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v before it writes the status: a value JSON cannot
// encode, such as a non-finite number, answers 500 naming the problem
// rather than the status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// jsonContentType is every JSON response's Content-Type, stored as the
// header's value rather than through Header.Set, which allocates a
// fresh one per response. Nothing writes into it.
var jsonContentType = []string{"application/json"}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// Request bodies and ingest batches are read and decoded into pooled
// buffers, and encoded responses written from them: regrowing them per
// request was most of what the ingest path allocated. A buffer that grew
// past maxPooledBytes is dropped, not kept alive by the pool.
const (
	maxPooledBytes = 1 << 20
	maxPooledBatch = maxPooledBytes / int(unsafe.Sizeof(ObservationDTO{}))
)

var (
	bodyPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	batchPool = sync.Pool{New: func() any { return new([]ObservationDTO) }}
)

// getBatch takes an ingest batch from the pool, zeroed over its whole
// capacity. encoding/json decodes into the elements a reused slice
// already holds: it zeroes no field the JSON omits, and it merges into
// an existing map instead of replacing it — a map some stored row owns.
// The scanner assumes zero elements too, and json.Unmarshal still
// decodes every batch the scanner declines.
func getBatch() *[]ObservationDTO {
	bp := batchPool.Get().(*[]ObservationDTO)
	clear((*bp)[:cap(*bp)])
	*bp = (*bp)[:0]
	return bp
}

// putBatch zeroes bp over its capacity, so the pool pins no row's
// strings or maps, and pools it unless it grew past maxPooledBatch.
func putBatch(bp *[]ObservationDTO) {
	clear((*bp)[:cap(*bp)])
	if *bp = (*bp)[:0]; cap(*bp) <= maxPooledBatch {
		batchPool.Put(bp)
	}
}

// readBody reads req's whole body into a buffer from bodyPool, which
// the caller hands back with putBody. It reads at most one byte past
// maxBodyBytes, straight into the buffer, so a body over the limit is
// refused with 413 without a limiting reader of its own; a body whose
// read fails answers 400.
func readBody(w http.ResponseWriter, req *http.Request) (*bytes.Buffer, bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := req.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + 1) // and one free byte for the read that sees EOF
	}
	for {
		if buf.Available() == 0 {
			buf.Grow(bytes.MinRead)
		}
		room := buf.AvailableBuffer()
		n, err := req.Body.Read(room[:min(cap(room), maxBodyBytes+1-buf.Len())])
		buf.Write(room[:n])
		switch {
		case buf.Len() > maxBodyBytes:
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the limit of %d bytes", maxBodyBytes))
		case err == io.EOF:
			return buf, true
		case err == nil:
			continue
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		}
		putBody(buf)
		return nil, false
	}
}

func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBytes {
		bodyPool.Put(buf)
	}
}

// readJSON decodes the whole body into v before the handler acts on any
// of it, so a malformed body changes nothing. A preference goes through
// decodePreference alone, which answers what it refuses with its own
// status. An ingest batch goes through the scanner (decode.go) first,
// resolving subjects through users, and whatever it declines, like
// every other body, through json.Unmarshal.
func readJSON(w http.ResponseWriter, req *http.Request, v any, users *profile.Directory) bool {
	buf, ok := readBody(w, req)
	if !ok {
		return false
	}
	defer putBody(buf)
	if p, ok := v.(*policy.Preference); ok {
		if err := decodePreference(buf.Bytes(), p, users); err != nil {
			writeErr(w, err.status, err)
			return false
		}
		return true
	}
	if decodeFast(buf.Bytes(), v, users) {
		return true
	}
	return unmarshal(w, buf.Bytes(), v)
}

// readRequest is readJSON for a data request or a query, typed so
// that dto stays on its caller's stack: json.Unmarshal keeps what it
// decodes into on the heap, so only a body the scanner declines pays
// for a DTO.
func readRequest[T RequestDTO | QueryRequestDTO](w http.ResponseWriter, req *http.Request, dto *T, users *profile.Directory) bool {
	buf, ok := readBody(w, req)
	if !ok {
		return false
	}
	defer putBody(buf)
	if decodeFast(buf.Bytes(), dto, users) {
		return true
	}
	declined := new(T)
	if !unmarshal(w, buf.Bytes(), declined) {
		return false
	}
	*dto = *declined
	return true
}

func unmarshal(w http.ResponseWriter, data []byte, v any) bool {
	if err := json.Unmarshal(data, v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return false
	}
	return true
}

// queryValue is req.URL.Query().Get(key) without the url.Values it
// builds: the first pair of the raw query naming key, unescaped, with
// the pairs url.ParseQuery refuses (one holding a semicolon, or an
// escape it cannot decode) skipped as it skips them. Unescaping
// allocates only for a pair that holds an escape or a plus.
func queryValue(req *http.Request, key string) string {
	for q := req.URL.RawQuery; q != ""; {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

func (s *Server) handlePolicies(w http.ResponseWriter, req *http.Request) {
	pols := s.bms.Policies()
	out := make([]PolicyDTO, 0, len(pols))
	for _, p := range pols {
		out = append(out, PolicyToDTO(p))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleListPreferences(w http.ResponseWriter, req *http.Request) {
	user := queryValue(req, "user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing user parameter"))
		return
	}
	prefs := s.bms.Preferences(user)
	out := make([]PreferenceDTO, 0, len(prefs))
	for _, p := range prefs {
		out = append(out, PreferenceToDTO(p))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSetPreference installs the body's preference and echoes what
// it installed: 400 for a body outside the schema, 422 for a rule the
// node cannot enforce as written, 409 for another user's ID.
func (s *Server) handleSetPreference(w http.ResponseWriter, req *http.Request) {
	var pref policy.Preference
	if !readJSON(w, req, &pref, s.bms.Users()) {
		return
	}
	if err := s.bms.SetPreference(pref); err != nil {
		writeErr(w, ruleErrStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusOK, PreferenceToDTO(pref))
}

func (s *Server) handleDeletePreference(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	removed, err := s.bms.RemovePreference(id)
	switch {
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err) // only the rule log fails a removal
	case !removed:
		writeErr(w, http.StatusNotFound, fmt.Errorf("no preference %q", id))
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// ruleErrStatus is the status of a refused rule mutation: 500 when the
// node could not log it (the request was fine; the node's disk was
// not), 409 when it names another user's preference, otherwise the
// handler's status for a bad request.
func ruleErrStatus(err error, refused int) int {
	switch {
	case errors.Is(err, core.ErrRuleLog):
		return http.StatusInternalServerError
	case errors.Is(err, core.ErrPreferenceOwned):
		return http.StatusConflict
	}
	return refused
}

func (s *Server) handleNotifications(w http.ResponseWriter, req *http.Request) {
	user := queryValue(req, "user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing user parameter"))
		return
	}
	notifs := s.bms.FetchNotifications(user)
	out := make([]NotificationDTO, 0, len(notifs))
	for _, n := range notifs {
		out = append(out, notificationToDTO(n))
	}
	writeJSON(w, http.StatusOK, out)
}

// ConflictDTO is the wire form of a resolved conflict.
type ConflictDTO struct {
	Kind              string `json:"kind"`
	PolicyID          string `json:"policy_id,omitempty"`
	PreferenceID      string `json:"preference_id,omitempty"`
	OtherPreferenceID string `json:"other_preference_id,omitempty"`
	UserID            string `json:"user_id,omitempty"`
	Winner            string `json:"winner"`
	OverrideApplied   bool   `json:"override_applied,omitempty"`
	Explanation       string `json:"explanation,omitempty"`
}

func (s *Server) handleConflicts(w http.ResponseWriter, req *http.Request) {
	conflicts := s.bms.Conflicts()
	out := make([]ConflictDTO, 0, len(conflicts))
	for _, c := range conflicts {
		out = append(out, ConflictDTO{
			Kind:              c.Kind.String(),
			PolicyID:          c.PolicyID,
			PreferenceID:      c.PreferenceID,
			OtherPreferenceID: c.OtherPreferenceID,
			UserID:            c.UserID,
			Winner:            c.Resolution.Winner,
			OverrideApplied:   c.Resolution.OverrideApplied,
			Explanation:       c.Resolution.Explanation,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// ingestResult reports a batch ingest outcome.
type ingestResult struct {
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

// handleIngest stores a batch in order, stopping at the first
// observation the node refuses: 422 with the count stored before it.
// The success answer is appended (appender.ingested), so a request
// allocates nothing of its own beyond what its rows need.
func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	bp := getBatch()
	defer putBatch(bp)
	if !readJSON(w, req, bp, s.bms.Users()) {
		return
	}
	decoded := time.Now()
	batch := *bp
	for i := range batch {
		if err := s.ingest(ObservationFromDTO(batch[i])); err != nil {
			msg := err.Error()
			span := telemetry.ServerSpan(req.Context())
			span.SetAttrInt("observations", int64(len(batch)))
			span.SetAttrInt("accepted", int64(i))
			span.SetAttr("error", msg)
			writeJSON(w, http.StatusUnprocessableEntity, ingestResult{Accepted: i, Error: msg})
			return
		}
	}
	appended := time.Now()
	a := getAppender()
	defer a.release()
	a.ingested(len(batch))
	s.ingestStages.observe(w, req, decoded.Sub(t0), appended.Sub(decoded), time.Since(appended), len(batch))
	a.respond(w)
}

func (s *Server) handleRequestUser(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	var dto RequestDTO
	if !readRequest(w, req, &dto, s.bms.Users()) {
		return
	}
	r, err := RequestFromDTO(dto)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	decoded := time.Now()
	rows := getAppender()
	defer rows.release()
	resp, err := s.bms.RequestUserEach(req.Context(), r, rows.rowFn)
	s.userStages.respond(w, req, t0, decoded, resp, rows, err)
}

// The stage clock (core.StageClock) is a request's one timing source.
// Each data endpoint adds its own stages around the request manager's —
// decoding the request, encoding the answer and, for ingest, appending
// the batch — and observes every stage that ran on
// tippers_request_stage_seconds{path,stage}. A sampled request also
// carries them on its server span, as "stage.<name>_us" attributes
// beside the facts of its decision trace, and in a Server-Timing header;
// an unsampled one allocates for neither. Encoding is building the body:
// the header has to be set before any of it is written.

// codecStages are a data endpoint's decode and encode stages, observed
// under the core path's name. The zero value, a server without
// metrics, observes nothing.
type codecStages struct{ decode, encode *telemetry.Histogram }

func newCodecStages(r *telemetry.Registry, path string) codecStages {
	if r == nil {
		return codecStages{}
	}
	return codecStages{decode: r.StageHistogram(path, "decode"), encode: r.StageHistogram(path, "encode")}
}

// respond answers a data request decoded from t0 to decoded: 400 with
// only the error when it failed — rows a subject read had already
// streamed are dropped, since nothing reaches w before the whole body is
// built — else resp as its ResponseDTO, with the rows appended by
// rows.row (nil for none) as its observations, and its stages observed.
func (c *codecStages) respond(w http.ResponseWriter, req *http.Request, t0, decoded time.Time, resp core.Response, rows *appender, err error) {
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	encode := time.Now()
	a := getAppender()
	defer a.release()
	a.response(&resp, rows)
	c.observe(w, req, &resp.Trace, decoded.Sub(t0), time.Since(encode))
	a.respond(w)
}

// observe records a served request's stages, tr's between decode and
// encode, and stamps a sampled one's on its server span and header.
func (c *codecStages) observe(w http.ResponseWriter, req *http.Request, tr *core.DecisionTrace, decode, encode time.Duration) {
	if c.decode != nil {
		c.decode.Observe(decode.Seconds())
		c.encode.Observe(encode.Seconds())
	}
	span := telemetry.ServerSpan(req.Context())
	if span == nil {
		return
	}
	t := serverTiming{span: span}
	t.stage("decode", decode)
	for s, st := range tr.Stages {
		if st.Calls > 0 {
			t.stage(core.Stage(s).String(), st.Duration())
		}
	}
	t.stage("encode", encode)
	t.send(w)
	traceAttrs(span, tr)
}

// ingestStages are the ingest path's stages: codecStages' two and the
// batch's appends, timed once for the batch.
type ingestStages struct {
	codecStages
	append *telemetry.Histogram
}

// observe is codecStages.observe for a batch of n observations, all
// accepted.
func (c *ingestStages) observe(w http.ResponseWriter, req *http.Request, decode, appended, encode time.Duration, n int) {
	if c.decode != nil {
		c.decode.Observe(decode.Seconds())
		c.append.Observe(appended.Seconds())
		c.encode.Observe(encode.Seconds())
	}
	span := telemetry.ServerSpan(req.Context())
	if span == nil {
		return
	}
	t := serverTiming{span: span}
	t.stage("decode", decode)
	t.stage("append", appended)
	t.stage("encode", encode)
	t.send(w)
	span.SetAttrInt("observations", int64(n))
	span.SetAttrInt("accepted", int64(n))
}

// serverTiming stamps a sampled request's stages on its server span and
// collects them for its Server-Timing header, in milliseconds to the
// microsecond the span holds.
type serverTiming struct {
	span *telemetry.Span
	hdr  []byte
}

func (t *serverTiming) stage(name string, d time.Duration) {
	us := d.Microseconds()
	t.span.SetAttrInt("stage."+name+"_us", us)
	if len(t.hdr) > 0 {
		t.hdr = append(t.hdr, ", "...)
	}
	t.hdr = append(t.hdr, name...)
	t.hdr = append(t.hdr, ";dur="...)
	t.hdr = strconv.AppendFloat(t.hdr, float64(us)/1000, 'f', 3, 64)
}

func (t *serverTiming) send(w http.ResponseWriter) {
	w.Header()["Server-Timing"] = []string{string(t.hdr)}
}

// traceAttrs stamps on a sampled server span the facts of its decision
// trace that describe the whole request, never the subject's identity.
func traceAttrs(span *telemetry.Span, tr *core.DecisionTrace) {
	span.SetAttr("service", tr.ServiceID)
	span.SetAttr("allowed", strconv.FormatBool(tr.Allowed))
	span.SetAttrInt("observations", int64(tr.ObservationsScanned))
	span.SetAttrInt("released", int64(tr.ObservationsReleased))
	switch tr.Path {
	case "occupancy":
		span.SetAttrInt("subjects", int64(tr.SubjectsConsidered))
		span.SetAttrInt("subjects_released", int64(tr.SubjectsReleased))
		span.SetAttrInt("k", int64(tr.K))
		span.SetAttrInt("spaces", int64(tr.Spaces))
		span.SetAttrInt("spaces_suppressed", int64(tr.SpacesSuppressed))
	case "query":
		span.SetAttr("table", tr.Table)
		span.SetAttrInt("subjects", int64(tr.SubjectsConsidered))
	}
}

func (s *Server) handleRequestOccupancy(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	var dto RequestDTO
	if !readRequest(w, req, &dto, s.bms.Users()) {
		return
	}
	r, err := RequestFromDTO(dto)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	k := 1
	if kStr := queryValue(req, "k"); kStr != "" {
		k, err = strconv.Atoi(kStr)
		if err != nil || k < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid k %q", kStr))
			return
		}
	}
	decoded := time.Now()
	resp, err := s.bms.RequestOccupancyCtx(req.Context(), r, k)
	s.occStages.respond(w, req, t0, decoded, resp, nil, err)
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, statsToDTO(s.bms.Stats()))
}

// forgetResult reports an erasure outcome.
type forgetResult struct {
	Deleted  int `json:"deleted"`
	Retained int `json:"retained"`
}

func (s *Server) handleForget(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	deleted, retained, err := s.bms.ForgetUser(id)
	if err != nil {
		writeErr(w, ruleErrStatus(err, http.StatusNotFound), err)
		return
	}
	writeJSON(w, http.StatusOK, forgetResult{Deleted: deleted, Retained: retained})
}

func (s *Server) handleAudit(w http.ResponseWriter, req *http.Request) {
	user := queryValue(req, "user")
	if user == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing user parameter"))
		return
	}
	report, err := s.bms.AuditUser(user, time.Time{})
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, auditToDTO(report))
}
