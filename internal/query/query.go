// Package query implements the enforcement-aware analytical query
// layer: a small SQL dialect over the building's observation store,
// occupancy aggregates, and decision-trace audit log.
//
// The paper's enforcement model (§IV) assumes every view of sensor
// data — not just the fixed occupancy request — passes the
// requester's policy and preference check. This package makes that
// true for ad-hoc reads: the planner compiles a statement into a plan
// whose scan is *structurally* bound to an enforcement predicate (see
// exec.go's enforcement type — there is no row source in this package
// that does not carry a requester identity and a decision hook), so a
// row the requester's policies deny never reaches projection,
// aggregation, or output. K-anonymity floors apply to grouped results
// exactly as they do for the request manager's occupancy path.
//
// Grammar (case-insensitive keywords, single-quoted strings):
//
//	SELECT cols | aggregates
//	FROM observations | occupancy | audit
//	[WHERE predicates]          -- =, !=, <>, <, <=, >, >=, IN, BETWEEN, AND, OR, NOT
//	[GROUP BY cols]
//	[HAVING predicates]         -- may reference aggregates
//	[ORDER BY col [ASC|DESC], ...]
//	[LIMIT n]
//
// Aggregates: COUNT(*), COUNT(col), COUNT(DISTINCT col), SUM, AVG,
// MIN, MAX. Time literals are strings in RFC 3339, "2006-01-02
// 15:04:05", or "2006-01-02" form.
//
// Sargable sensor/space/time predicates (sensor_id, user_id,
// device_mac, kind, space_id, time, seq) are pushed down into an
// obstore.Filter so the store prunes by index before scanning;
// spatial predicates expand to the space's subtree like every other
// request path. Residual predicates evaluate against the *released*
// view of each row — after granularity coarsening and noise — so a
// query can never observe more than enforcement lets through. Pushed
// spatial conjuncts are pruning hints only: they are kept in the
// residual too, so a location coarsened out of the queried subtree
// drops the row instead of leaking ground-truth presence.
package query

import (
	"fmt"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// Requester is the identity a query runs as. Every scanned row is
// decided against it; the zero Requester is rejected at plan time.
type Requester struct {
	// ServiceID is the requesting service; purpose binding applies
	// exactly as for request-manager calls.
	ServiceID string
	// Purpose is the declared purpose of the query.
	Purpose policy.Purpose
	// UserID is the human identity behind the query; required for the
	// audit table, whose rows are scoped to the requester's own
	// decisions.
	UserID string
	// Granularity is the precision requested; zero means exact. The
	// released precision is still clamped per subject by enforcement.
	Granularity policy.Granularity
	// MinK is the k-anonymity floor for grouped results (default 1);
	// contributing subjects' own floors can only raise it.
	MinK int
}

// Env supplies the collaborators a plan executes against. The BMS
// core wires one; tests may stub individual hooks.
type Env struct {
	// ScanEach visits ground truth matching the plan's pushed-down
	// filter, one row at a time in ascending seq, until visit returns
	// false. The row pointer is valid only during the call (the backend
	// may reuse one scratch row), and visit runs with no store lock
	// held. This is what the executor runs on; see colstore.Store.Scan.
	ScanEach func(f obstore.Filter, visit func(*sensor.Observation) bool)
	// Scan is the slice-returning form of ScanEach for backends that
	// already hold their rows (tests, examples, replays). One of the
	// two is required; Compile adapts Scan into ScanEach, and ScanEach
	// wins when both are set.
	Scan func(f obstore.Filter) []sensor.Observation
	// Subtree expands a space ID to its spatial subtree (the IDs a
	// space predicate covers). nil restricts spatial predicates to
	// exact IDs.
	Subtree func(spaceID string) []string
	// Decide runs query-time enforcement for one (requester, subject,
	// kind, space) combination at one instant. Required.
	Decide func(req enforce.Request) enforce.Decision
	// Domain returns a subject's class domain (enforce.Engine.Domain).
	// Each row is judged at its capture time, and the execution decides
	// once per window class of those times. nil means no rule has a
	// window: one class per subject.
	Domain func(subjectID string) enforce.Domain
	// Apply runs an allow decision's data path (granularity clamp,
	// noise) over one observation; ok=false suppresses the row.
	Apply func(d enforce.Decision, o sensor.Observation) (out sensor.Observation, ok bool, err error)
	// AuditRecords returns the retained decision traces naming
	// subjectID, newest first, for the audit table.
	AuditRecords func(subjectID string) []AuditRecord
	// Now is read by nothing: rows are judged at their capture times.
	// bench/replay.go still sets it, and it goes when that file does.
	Now func() time.Time
	// Rollup is a shim for bench/replay.go (see shim.go): nothing in
	// this package calls it.
	Rollup func(req RollupRequest) (cells []RollupEntry, ok bool)
}

// AuditRecord is one audit-table row: a retained enforcement
// decision. The core converts its decision traces into these.
type AuditRecord struct {
	ID          uint64
	Time        time.Time
	Path        string
	ServiceID   string
	SubjectID   string
	Kind        string
	Purpose     string
	Allowed     bool
	DenyReason  string
	Granularity string
	CacheHit    bool
}

// Stats reports what a query's enforced scan did: how much ground
// truth was touched, how much enforcement withheld, and the effective
// k-anonymity floor. Callers surface it so "why is my result small"
// is answerable.
type Stats struct {
	// ScannedRows is how many rows the pushed-down store scan
	// returned (after pushdown pruning, before enforcement).
	ScannedRows int `json:"scanned_rows"`
	// DeniedRows were dropped because the subject's decision denied
	// the flow.
	DeniedRows int `json:"denied_rows"`
	// ExcludedRows were allowed but carry an aggregation floor > 1,
	// which a row-level release can never satisfy.
	ExcludedRows int `json:"excluded_rows"`
	// ReleasedRows passed enforcement (and transformation) into the
	// query pipeline.
	ReleasedRows int `json:"released_rows"`
	// Subjects is the number of distinct subjects decided.
	Subjects int `json:"subjects"`
	// Decisions counts enforcement-engine invocations (memo misses);
	// the per-query memo keeps it far below ScannedRows.
	Decisions int `json:"decisions"`
	// EffectiveK is the k-anonymity floor applied to grouped output:
	// max of the requester's MinK and the floor of every subject whose
	// rows survive into the result (rows a predicate discards do not
	// raise it).
	EffectiveK int `json:"effective_k"`
	// SuppressedGroups counts groups withheld for falling short of
	// EffectiveK distinct subjects. Groups with no attributed rows are
	// never suppressed.
	SuppressedGroups int `json:"suppressed_groups"`
	// UsedRollup is a shim for bench/replay.go (see shim.go): it is
	// never set.
	UsedRollup bool `json:"-"`
}

// Result is an executed query: column names and typed rows.
type Result struct {
	Columns []string  `json:"columns"`
	Rows    [][]Value `json:"rows"`
	Stats   Stats     `json:"stats"`
}

// ParseError reports a lexical or syntactic error with its position.
type ParseError struct {
	Line, Col int
	Msg       string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("query: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

// PlanError reports a semantic error: unknown table or column, a
// type-mismatched literal, an invalid aggregate.
type PlanError struct {
	Msg string
}

func (e *PlanError) Error() string { return "query: " + e.Msg }

// EnforceError reports a query rejected by the enforcement layer
// itself (as opposed to rows silently withheld), e.g. an audit query
// without a user identity.
type EnforceError struct {
	Msg string
}

func (e *EnforceError) Error() string { return "query: " + e.Msg }

func planErrf(format string, args ...any) *PlanError {
	return &PlanError{Msg: fmt.Sprintf(format, args...)}
}

// Run parses, plans, and executes sql as requester against env. It is
// the library entrypoint; callers that want stage-level tracing use
// Parse, Compile, and Plan.Execute directly.
func Run(env Env, requester Requester, sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	plan, err := Compile(stmt, env, requester)
	if err != nil {
		return nil, err
	}
	return plan.Execute()
}
