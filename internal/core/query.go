package core

import (
	"context"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/query"
)

// QueryResponse is an executed analytical query plus its decision
// trace.
type QueryResponse struct {
	Result *query.Result
	// Trace is the span-like record of the query's enforcement run
	// (parse/plan/execute stage timings, released-row counts); also
	// retained in the BMS trace ring.
	Trace DecisionTrace
}

// Query plans and executes one SQL statement as requester (Figure 1
// steps 9–10, generalized to ad-hoc reads): the planner pushes
// sargable predicates into the store's filter and binds the scan to a
// per-row enforcement predicate, so policies and preferences gate
// every row exactly as they gate the fixed request paths. A statement
// whose shape — its tokens, literals aside — the node has compiled
// before is lexed, looked up in the node's plan cache and bound to the
// shape's template (the trace's parse and plan stages, and its
// PlanCached); any other is parsed and compiled afresh. Either way the
// requester is admitted and every literal checked anew, and failures
// return the typed errors a fresh compile gives (*query.ParseError,
// *query.PlanError, *query.EnforceError).
func (b *BMS) Query(ctx context.Context, requester query.Requester, sql string) (QueryResponse, error) {
	started := time.Now()
	defer b.met.requestQuery.ObserveSince(started)
	tr := b.newTrace("query", enforce.Request{
		ServiceID:   requester.ServiceID,
		Purpose:     requester.Purpose,
		Granularity: requester.Granularity,
	})
	tr.joinSpanContext(ctx)

	t0 := time.Now()
	plan, cached, parsed, err := b.plans.Compile(sql, b.qenv, requester)
	tr.Stages.add(StageParse, parsed.Sub(t0))
	if cached {
		b.met.planHits.Inc()
	} else {
		b.met.planMisses.Inc()
	}
	if err != nil {
		if ee, ok := err.(*query.EnforceError); ok {
			// A query the enforcement layer rejects outright is itself
			// an auditable decision.
			tr.Allowed = false
			tr.DenyReason = ee.Msg
			b.finishTrace(&tr, started)
		}
		return QueryResponse{}, err
	}
	tr.Stages.add(StagePlan, time.Since(parsed))
	tr.Table = plan.Table()
	tr.PlanCached = cached

	t0 = time.Now()
	res, err := plan.Execute()
	if err != nil {
		return QueryResponse{}, err
	}
	tr.Stages.add(StageExecute, time.Since(t0))
	b.met.queryScanned.Add(uint64(res.Stats.ScannedRows))
	b.met.queryDenied.Add(uint64(res.Stats.DeniedRows))
	b.met.queryExcluded.Add(uint64(res.Stats.ExcludedRows))
	b.met.queryReleased.Add(uint64(res.Stats.ReleasedRows))
	b.met.queryGroupsSuppressed.Add(uint64(res.Stats.SuppressedGroups))
	tr.Allowed = true
	tr.SubjectsConsidered = res.Stats.Subjects
	tr.ObservationsScanned = res.Stats.ScannedRows
	tr.ObservationsReleased = res.Stats.ReleasedRows
	return QueryResponse{Result: res, Trace: b.finishTrace(&tr, started)}, nil
}

// queryEnv wires the query executor to this BMS: the store scan, the
// spatial subtree expansion, the enforcement engine (through decide,
// with notification delivery and metrics) and its class domains, the
// per-row data path, and the audit view over retained decision traces.
// Statements and the user and occupancy reads all execute against it.
// New builds it once, so an execution allocates none of its hooks.
func (b *BMS) queryEnv() query.Env {
	return query.Env{
		// The store's scan is the unified view: zone-map-pruned segments
		// behind the watermark, the hot log ahead of it.
		ScanEach:     b.store.Scan,
		Subtree:      b.subtree,
		Decide:       b.decide,
		Domain:       b.engine.Domain,
		Apply:        b.apply,
		AuditRecords: b.auditRecords,
	}
}

// auditRecords projects the retained decision traces naming subjectID
// into audit-table rows — the query-layer view of "what did the
// building decide about me?".
func (b *BMS) auditRecords(subjectID string) []query.AuditRecord {
	traces := b.TracesForSubject(subjectID, 0)
	out := make([]query.AuditRecord, 0, len(traces))
	for _, t := range traces {
		out = append(out, query.AuditRecord{
			ID:          t.ID,
			Time:        t.Time,
			Path:        t.Path,
			ServiceID:   t.ServiceID,
			SubjectID:   t.SubjectID,
			Kind:        t.ObsKind,
			Purpose:     t.Purpose,
			Allowed:     t.Allowed,
			DenyReason:  t.DenyReason,
			Granularity: t.Granularity,
			CacheHit:    t.CacheHit,
		})
	}
	return out
}
