package core

import (
	"github.com/tippers/tippers/internal/telemetry"
)

// coreMetrics is the pipeline's instrument panel: every counter the
// old mutex-guarded Stats struct held now lives on lock-free
// telemetry primitives, registered (with help text) on the
// deployment's registry so /metrics exposes them. Stats() keeps its
// exact struct and semantics by snapshotting these.
type coreMetrics struct {
	ingested          *telemetry.Counter
	droppedDisabled   *telemetry.Counter
	droppedUnlogged   *telemetry.Counter
	pseudonymized     *telemetry.Counter
	requestsDecided   *telemetry.Counter
	requestsDenied    *telemetry.Counter
	defaultAllowed    *telemetry.Counter
	notificationsSent *telemetry.Counter

	// Privacy outcomes of the SQL path, added once per statement from
	// its Result.Stats.
	queryScanned, queryDenied, queryExcluded, queryReleased *telemetry.Counter
	queryGroupsSuppressed                                   *telemetry.Counter
	// planHits and planMisses count statements bound to a cached
	// template and statements parsed and compiled afresh.
	planHits, planMisses *telemetry.Counter
	occSpacesSuppressed  *telemetry.Counter

	ingestSeconds *telemetry.Histogram
	detectSeconds *telemetry.Histogram
	decideSeconds *telemetry.Histogram
	requestUser   *telemetry.Histogram
	requestOccup  *telemetry.Histogram
	requestQuery  *telemetry.Histogram

	// stages holds each request path's stage-clock histograms, indexed
	// by Stage; only the stages pathStages lists for the path are set.
	stages map[string]*[NumStages]*telemetry.Histogram
}

func newCoreMetrics(r *telemetry.Registry, engineName string) *coreMetrics {
	const queryRowsHelp = "Ground-truth rows the SQL path visited, by enforcement outcome: scanned (all), denied by the subject's decision, excluded by an aggregation floor a row release cannot meet, released."
	queryRows := func(outcome string) *telemetry.Counter {
		return r.CounterWith("tippers_query_rows_total", queryRowsHelp, telemetry.Labels{"outcome": outcome})
	}
	const planCacheHelp = "SQL statements by plan cache outcome: hit, bound to the template its shape compiled to; miss, parsed and compiled afresh."
	planCache := func(result string) *telemetry.Counter {
		return r.CounterWith("tippers_query_plan_cache_total", planCacheHelp, telemetry.Labels{"result": result})
	}
	m := &coreMetrics{
		ingested: r.Counter("tippers_core_ingested_total",
			"Observations accepted by the capture pipeline."),
		droppedDisabled: r.Counter("tippers_core_dropped_disabled_total",
			"Observations dropped because the sensor was disabled at capture time."),
		droppedUnlogged: r.Counter("tippers_core_dropped_unlogged_total",
			"Observations dropped because logging was off (e.g. wifi opt-out)."),
		pseudonymized: r.Counter("tippers_core_pseudonymized_total",
			"Observations pseudonymized at capture time."),
		requestsDecided: r.Counter("tippers_core_requests_decided_total",
			"Query-time enforcement decisions made by the request manager."),
		requestsDenied: r.Counter("tippers_core_requests_denied_total",
			"Query-time enforcement decisions that denied the flow."),
		defaultAllowed: r.Counter("tippers_enforce_default_allow_total",
			"Decisions allowed with no matched preference, no group default and no override: released on the default alone."),
		notificationsSent: r.Counter("tippers_core_notifications_sent_total",
			"Notifications folded into user inboxes: a repeat of a (policy, preference) key already there counts here and in its entry's count."),
		queryScanned:  queryRows("scanned"),
		queryDenied:   queryRows("denied"),
		queryExcluded: queryRows("excluded"),
		queryReleased: queryRows("released"),
		planHits:      planCache("hit"),
		planMisses:    planCache("miss"),
		queryGroupsSuppressed: r.Counter("tippers_query_groups_suppressed_total",
			"Groups the SQL path withheld for falling short of the effective k-anonymity floor."),
		occSpacesSuppressed: r.Counter("tippers_occupancy_spaces_suppressed_total",
			"Spaces occupancy requests withheld for falling short of the effective k-anonymity floor; answers replayed from the cache add nothing."),
		ingestSeconds: r.Histogram("tippers_core_ingest_seconds",
			"Capture-pipeline latency per observation.", nil),
		detectSeconds: r.Histogram("tippers_reasoner_detect_seconds",
			"Rule-mutation latency under the rule lock: the enforcement engine's update plus conflict maintenance (the changed rule against the policies and the owner's other preferences).", nil),
		decideSeconds: r.HistogramWith("tippers_enforce_decide_seconds",
			"Query-time enforcement decision latency.",
			telemetry.Labels{"engine": engineName}, nil),
		requestUser: r.HistogramWith("tippers_core_request_seconds",
			"End-to-end request-manager latency.",
			telemetry.Labels{"path": "user"}, nil),
		requestOccup: r.HistogramWith("tippers_core_request_seconds",
			"End-to-end request-manager latency.",
			telemetry.Labels{"path": "occupancy"}, nil),
		requestQuery: r.HistogramWith("tippers_core_request_seconds",
			"End-to-end request-manager latency.",
			telemetry.Labels{"path": "query"}, nil),
		stages: make(map[string]*[NumStages]*telemetry.Histogram, len(pathStages)),
	}
	for path, stages := range pathStages {
		hists := new([NumStages]*telemetry.Histogram)
		for _, s := range stages {
			hists[s] = r.StageHistogram(path, s.String())
		}
		m.stages[path] = hists
	}
	return m
}

// Metrics returns the registry this BMS reports on. When none was
// supplied in Config, a private registry is created so callers can
// still scrape or snapshot it.
func (b *BMS) Metrics() *telemetry.Registry { return b.metrics }
