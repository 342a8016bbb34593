package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/profile"
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
}

// NewServer wraps a BMS.
func NewServer(bms *core.BMS) *Server {
	return &Server{bms: bms}
}

// WithMetrics makes Handler wrap every route with per-route
// count/latency/status metrics (tippers_http_*) on r. Returns s for
// chaining.
func (s *Server) WithMetrics(r *telemetry.Registry) *Server {
	s.metrics = r
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
	handle := func(pattern string, hf http.HandlerFunc) {
		var h http.Handler = hf
		if s.tracer != nil {
			h = telemetry.TraceHandler(s.tracer, pattern, s.slow, s.logger, h)
		}
		if s.metrics != nil {
			h = telemetry.InstrumentHandler(s.metrics, "tippers_http", pattern, h)
		}
		mux.Handle(pattern, h)
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
	if nStr := req.URL.Query().Get("n"); nStr != "" {
		v, err := strconv.Atoi(nStr)
		if err != nil || v < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", nStr))
			return
		}
		n = v
	}
	var traces []core.DecisionTrace
	if user := req.URL.Query().Get("user"); user != "" {
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
	if nStr := req.URL.Query().Get("n"); nStr != "" {
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
	defer func() {
		if buf.Cap() <= maxPooledBytes {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

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

// readJSON decodes the whole body into v before the handler acts on any
// of it, so a malformed body changes nothing. A body over maxBodyBytes
// is refused with 413. An ingest batch or a data request goes through
// the scanner (decode.go) first, resolving subjects through users, and
// whatever it declines, like every other body, through json.Unmarshal.
func readJSON(w http.ResponseWriter, req *http.Request, v any, users *profile.Directory) bool {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBytes {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if n := req.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead free to see EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, maxBodyBytes)); err != nil {
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the limit of %d bytes", tooLarge.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return false
	}
	if decodeFast(buf.Bytes(), v, users) {
		return true
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode body: %w", err))
		return false
	}
	return true
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
	user := req.URL.Query().Get("user")
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

func (s *Server) handleSetPreference(w http.ResponseWriter, req *http.Request) {
	var dto PreferenceDTO
	if !readJSON(w, req, &dto, s.bms.Users()) {
		return
	}
	pref, err := PreferenceFromDTO(dto)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.bms.SetPreference(pref); err != nil {
		writeErr(w, ruleErrStatus(err, http.StatusUnprocessableEntity), err)
		return
	}
	writeJSON(w, http.StatusOK, dto)
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
// not), otherwise the handler's status for a bad request.
func ruleErrStatus(err error, refused int) int {
	if errors.Is(err, core.ErrRuleLog) {
		return http.StatusInternalServerError
	}
	return refused
}

func (s *Server) handleNotifications(w http.ResponseWriter, req *http.Request) {
	user := req.URL.Query().Get("user")
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

func (s *Server) handleIngest(w http.ResponseWriter, req *http.Request) {
	// encoding/json decodes into the elements a reused slice already
	// holds: it zeroes no field the JSON omits, and it merges into an
	// existing map instead of replacing it — a map some stored row owns.
	// The scanner assumes zero elements too, and json.Unmarshal still
	// decodes every batch the scanner declines. So the pooled batch is
	// zeroed over its whole capacity before the decode, and again after,
	// so the pool pins no row's strings or maps.
	bp := batchPool.Get().(*[]ObservationDTO)
	batch := *bp
	clear(batch[:cap(batch)])
	batch = batch[:0]
	defer func() {
		clear(batch[:cap(batch)])
		if *bp = batch[:0]; cap(batch) <= maxPooledBatch {
			batchPool.Put(bp)
		}
	}()
	if !readJSON(w, req, &batch, s.bms.Users()) {
		return
	}
	accepted := 0
	for i := range batch {
		if err := s.bms.IngestCtx(req.Context(), ObservationFromDTO(batch[i])); err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, ingestResult{Accepted: accepted, Error: err.Error()})
			return
		}
		accepted++
	}
	writeJSON(w, http.StatusOK, ingestResult{Accepted: accepted})
}

func (s *Server) handleRequestUser(w http.ResponseWriter, req *http.Request) {
	var dto RequestDTO
	if !readJSON(w, req, &dto, s.bms.Users()) {
		return
	}
	r, err := RequestFromDTO(dto)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	rows := getAppender()
	defer rows.release()
	resp, err := s.bms.RequestUserEach(req.Context(), r, rows.row)
	writeResponse(w, resp, rows, err)
}

// writeResponse answers a data request: 400 with only the error when it
// failed — rows a subject read had already streamed are dropped, since
// nothing reaches w before the whole body is built — else resp as its
// ResponseDTO, with the rows appended by rows.row (nil for none) as its
// observations.
func writeResponse(w http.ResponseWriter, resp core.Response, rows *appender, err error) {
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	a := getAppender()
	defer a.release()
	a.response(&resp, rows)
	a.respond(w)
}

func (s *Server) handleRequestOccupancy(w http.ResponseWriter, req *http.Request) {
	var dto RequestDTO
	if !readJSON(w, req, &dto, s.bms.Users()) {
		return
	}
	r, err := RequestFromDTO(dto)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	k := 1
	if kStr := req.URL.Query().Get("k"); kStr != "" {
		k, err = strconv.Atoi(kStr)
		if err != nil || k < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid k %q", kStr))
			return
		}
	}
	resp, err := s.bms.RequestOccupancyCtx(req.Context(), r, k)
	writeResponse(w, resp, nil, err)
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
	user := req.URL.Query().Get("user")
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
