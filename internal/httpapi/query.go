package httpapi

import (
	"context"
	"errors"
	"net/http"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/query"
)

// QueryRequestDTO is the wire form of one analytical query: the SQL
// text plus the requester identity enforcement binds the scan to.
type QueryRequestDTO struct {
	SQL string `json:"sql"`
	// ServiceID/Purpose identify the requesting service (required for
	// the observations and occupancy tables).
	ServiceID string `json:"service_id,omitempty"`
	Purpose   string `json:"purpose,omitempty"`
	// UserID is the requesting person — required for the audit table,
	// which is scoped to decisions about that subject.
	UserID      string `json:"user_id,omitempty"`
	Granularity string `json:"granularity,omitempty"`
	// K floors grouped results (k-anonymity); per-subject preference
	// floors can only raise it.
	K int `json:"k,omitempty"`
}

// QueryStatsDTO is the wire form of query.Stats: how enforcement
// shaped the result.
type QueryStatsDTO struct {
	ScannedRows      int `json:"scanned_rows"`
	DeniedRows       int `json:"denied_rows"`
	ExcludedRows     int `json:"excluded_rows"`
	ReleasedRows     int `json:"released_rows"`
	Subjects         int `json:"subjects"`
	Decisions        int `json:"decisions"`
	EffectiveK       int `json:"effective_k"`
	SuppressedGroups int `json:"suppressed_groups"`
}

// QueryResultDTO is the wire form of an executed query. Row cells are
// JSON scalars (string, number, bool, RFC 3339 time string, or null).
// The server appends it directly (append.go); clients decode it.
type QueryResultDTO struct {
	Columns []string          `json:"columns"`
	Rows    [][]any           `json:"rows"`
	Stats   QueryStatsDTO     `json:"stats"`
	Trace   *DecisionTraceDTO `json:"trace,omitempty"`
}

// QueryErrorDTO is the typed error payload for /v1/query failures.
// Kind distinguishes parse (bad SQL, with position), plan (valid SQL
// the planner rejects), and enforce (the enforcement layer refused
// the query outright). Error stays wire-compatible with errorBody so
// generic clients still see a message.
type QueryErrorDTO struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
}

// requesterFromDTO builds the enforcement identity a query runs as.
func requesterFromDTO(d QueryRequestDTO) (query.Requester, error) {
	out := query.Requester{
		ServiceID: d.ServiceID,
		Purpose:   policy.Purpose(d.Purpose),
		UserID:    d.UserID,
		MinK:      d.K,
	}
	if d.Granularity != "" {
		g, err := policy.ParseGranularity(d.Granularity)
		if err != nil {
			return query.Requester{}, err
		}
		out.Granularity = g
	}
	return out, nil
}

// handleQuery serves POST /v1/query: parse, plan, and execute one SQL
// statement under the requester's enforcement identity. Parse and
// plan failures are 400 with a typed QueryErrorDTO; enforcement
// refusals are 403.
func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	t0 := time.Now()
	var dto QueryRequestDTO
	if !readRequest(w, req, &dto, s.bms.Users()) {
		return
	}
	r, err := requesterFromDTO(dto)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	decoded := time.Now()
	resp, err := s.bms.Query(req.Context(), r, dto.SQL)
	if err != nil {
		writeQueryErr(w, err)
		return
	}
	encode := time.Now()
	a := getAppender()
	defer a.release()
	a.queryResult(resp.Result, &resp.Trace)
	s.queryStages.observe(w, req, &resp.Trace, decoded.Sub(t0), time.Since(encode))
	a.respond(w)
}

// writeQueryErr maps the query layer's typed errors onto the wire:
// the client can tell a typo (parse, with position) from a schema
// mistake (plan) from a refusal (enforce) without string matching.
func writeQueryErr(w http.ResponseWriter, err error) {
	var pe *query.ParseError
	var le *query.PlanError
	var ee *query.EnforceError
	switch {
	case errors.As(err, &pe):
		writeJSON(w, http.StatusBadRequest, QueryErrorDTO{Error: pe.Error(), Kind: "parse", Line: pe.Line, Col: pe.Col})
	case errors.As(err, &le):
		writeJSON(w, http.StatusBadRequest, QueryErrorDTO{Error: le.Error(), Kind: "plan"})
	case errors.As(err, &ee):
		writeJSON(w, http.StatusForbidden, QueryErrorDTO{Error: ee.Error(), Kind: "enforce"})
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

// Query executes one SQL statement on the node as the identity in
// req. Typed failures surface as errors whose message carries the
// parse position or refusal reason.
func (c *Client) Query(ctx context.Context, req QueryRequestDTO) (QueryResultDTO, error) {
	var out QueryResultDTO
	err := c.do(ctx, http.MethodPost, "/v1/query", req, &out)
	return out, err
}
