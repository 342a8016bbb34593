// Package httpapi exposes a TIPPERS node over HTTP and provides the
// typed client IoTAs, services, and tools use to reach it. The wire
// format is snake_case JSON, decoupled from the internal types so the
// enforcement core can evolve without breaking the API.
package httpapi

import (
	"encoding/json"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// ScopeDTO is the wire form of policy.Scope.
type ScopeDTO struct {
	SpaceID    string     `json:"space_id,omitempty"`
	SensorType string     `json:"sensor_type,omitempty"`
	ObsKind    string     `json:"obs_kind,omitempty"`
	Purposes   []string   `json:"purposes,omitempty"`
	ServiceID  string     `json:"service_id,omitempty"`
	Window     *WindowDTO `json:"window,omitempty"`
}

// WindowDTO is the wire form of policy.DailyWindow.
type WindowDTO struct {
	StartMinute int   `json:"start_minute"`
	EndMinute   int   `json:"end_minute"`
	Days        uint8 `json:"days,omitempty"`
}

// RuleDTO is the wire form of policy.Rule.
type RuleDTO struct {
	Action          string  `json:"action"`
	MaxGranularity  string  `json:"max_granularity,omitempty"`
	NoiseEpsilon    float64 `json:"noise_epsilon,omitempty"`
	MinAggregationK int     `json:"min_aggregation_k,omitempty"`
}

// PreferenceDTO is the wire form of policy.Preference.
type PreferenceDTO struct {
	ID     string   `json:"id"`
	UserID string   `json:"user_id"`
	Name   string   `json:"name,omitempty"`
	Scope  ScopeDTO `json:"scope"`
	Rule   RuleDTO  `json:"rule"`
	Source string   `json:"source,omitempty"`
}

// PolicyDTO summarizes a building policy for listing.
type PolicyDTO struct {
	ID          string   `json:"id"`
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Owner       string   `json:"owner,omitempty"`
	Kind        string   `json:"kind"`
	Scope       ScopeDTO `json:"scope"`
	Retention   string   `json:"retention,omitempty"`
	Override    bool     `json:"override,omitempty"`
}

// RequestDTO is the wire form of enforce.Request.
type RequestDTO struct {
	ServiceID   string    `json:"service_id,omitempty"`
	Purpose     string    `json:"purpose"`
	Kind        string    `json:"kind"`
	SubjectID   string    `json:"subject_id,omitempty"`
	SpaceID     string    `json:"space_id,omitempty"`
	Granularity string    `json:"granularity,omitempty"`
	Time        time.Time `json:"time,omitempty"`
	From        time.Time `json:"from,omitempty"`
	To          time.Time `json:"to,omitempty"`
	// AfterSeq and Limit page the data path: only observations with
	// seq > after_seq, at most limit of them (0 = no cap).
	AfterSeq uint64 `json:"after_seq,omitempty"`
	Limit    int    `json:"limit,omitempty"`
}

// NotificationDTO is the wire form of enforce.Notification: one inbox
// entry per (policy, preference), fired Count times between First and
// Last since the user's last drain.
type NotificationDTO struct {
	UserID       string    `json:"user_id"`
	PolicyID     string    `json:"policy_id,omitempty"`
	PreferenceID string    `json:"preference_id,omitempty"`
	Message      string    `json:"message"`
	Count        int       `json:"count"`
	First        time.Time `json:"first"`
	Last         time.Time `json:"last"`
}

// DecisionDTO is the wire form of enforce.Decision.
type DecisionDTO struct {
	Allowed            bool     `json:"allowed"`
	Granularity        string   `json:"granularity,omitempty"`
	DenyReason         string   `json:"deny_reason,omitempty"`
	MatchedPreferences []string `json:"matched_preferences,omitempty"`
	MatchedDefaults    []string `json:"matched_defaults,omitempty"`
	MatchedPolicy      string   `json:"matched_policy,omitempty"`
	Overridden         []string `json:"overridden,omitempty"`
	CacheHit           bool     `json:"cache_hit,omitempty"`
}

// TraceStageDTO is the wire form of one timed request phase.
type TraceStageDTO struct {
	Name           string `json:"name"`
	DurationMicros int64  `json:"duration_us"`
}

// DecisionTraceDTO is the wire form of core.DecisionTrace: the
// span-like record of one enforcement decision, with matched rule
// IDs and per-stage timings.
type DecisionTraceDTO struct {
	ID                   uint64          `json:"id"`
	Time                 time.Time       `json:"time"`
	TraceID              string          `json:"trace_id,omitempty"`
	Path                 string          `json:"path"`
	ServiceID            string          `json:"service_id,omitempty"`
	SubjectID            string          `json:"subject_id,omitempty"`
	ObsKind              string          `json:"obs_kind,omitempty"`
	Purpose              string          `json:"purpose,omitempty"`
	Engine               string          `json:"engine"`
	Allowed              bool            `json:"allowed"`
	DenyReason           string          `json:"deny_reason,omitempty"`
	Granularity          string          `json:"granularity,omitempty"`
	CacheHit             bool            `json:"cache_hit"`
	MatchedPolicies      []string        `json:"matched_policies,omitempty"`
	MatchedPreferences   []string        `json:"matched_preferences,omitempty"`
	MatchedDefaults      []string        `json:"matched_defaults,omitempty"`
	Overridden           []string        `json:"overridden,omitempty"`
	SubjectsConsidered   int             `json:"subjects_considered,omitempty"`
	SubjectsReleased     int             `json:"subjects_released,omitempty"`
	ObservationsReleased int             `json:"observations_released,omitempty"`
	ObservationsScanned  int             `json:"observations_scanned,omitempty"`
	K                    int             `json:"k,omitempty"`
	Spaces               int             `json:"spaces,omitempty"`
	SpacesSuppressed     int             `json:"spaces_suppressed,omitempty"`
	Table                string          `json:"table,omitempty"`
	PlanCached           bool            `json:"plan_cached,omitempty"`
	Stages               []TraceStageDTO `json:"stages"`
	TotalMicros          int64           `json:"total_us"`
}

// ObservationDTO is the wire form of sensor.Observation.
type ObservationDTO struct {
	Seq       uint64            `json:"seq,omitempty"`
	SensorID  string            `json:"sensor_id"`
	Kind      string            `json:"kind"`
	Time      time.Time         `json:"time"`
	SpaceID   string            `json:"space_id,omitempty"`
	DeviceMAC string            `json:"device_mac,omitempty"`
	UserID    string            `json:"user_id,omitempty"`
	Value     float64           `json:"value,omitempty"`
	Payload   map[string]string `json:"payload,omitempty"`
}

// AggregateDTO is the wire form of privacy.AggregateCount.
type AggregateDTO struct {
	Key   string `json:"key"`
	Count int    `json:"count"`
}

// ResponseDTO is the wire form of core.Response. The server appends it
// directly (append.go); clients decode it.
type ResponseDTO struct {
	Decision           DecisionDTO       `json:"decision"`
	Observations       []ObservationDTO  `json:"observations,omitempty"`
	Aggregates         []AggregateDTO    `json:"aggregates,omitempty"`
	SubjectsConsidered int               `json:"subjects_considered,omitempty"`
	SubjectsReleased   int               `json:"subjects_released,omitempty"`
	Trace              *DecisionTraceDTO `json:"trace,omitempty"`
}

// HealthzDTO is the /v1/healthz body. The node-identity fields are
// present when the daemon was configured via Server.WithNodeInfo;
// load harnesses use them to fail fast on a building/population/seed
// mismatch instead of silently generating a workload for the wrong
// simulated building.
type HealthzDTO struct {
	Status       string `json:"status"`
	Building     string `json:"building,omitempty"`
	BuildingName string `json:"building_name,omitempty"`
	Floors       int    `json:"floors,omitempty"`
	Population   int    `json:"population,omitempty"`
	Seed         int64  `json:"seed,omitempty"`
}

// StatsDTO is the wire form of core.Stats.
type StatsDTO struct {
	Ingested          uint64 `json:"ingested"`
	DroppedDisabled   uint64 `json:"dropped_disabled"`
	DroppedUnlogged   uint64 `json:"dropped_unlogged"`
	Pseudonymized     uint64 `json:"pseudonymized"`
	RequestsDecided   uint64 `json:"requests_decided"`
	RequestsDenied    uint64 `json:"requests_denied"`
	NotificationsSent uint64 `json:"notifications_sent"`
}

// Conversions.

func scopeToDTO(s policy.Scope) ScopeDTO {
	out := ScopeDTO{
		SpaceID:   s.SpaceID,
		ObsKind:   string(s.ObsKind),
		ServiceID: s.ServiceID,
	}
	if s.SensorType != 0 {
		out.SensorType = s.SensorType.String()
	}
	for _, p := range s.Purposes {
		out.Purposes = append(out.Purposes, string(p))
	}
	if !s.Window.IsZero() {
		out.Window = &WindowDTO{StartMinute: s.Window.Start, EndMinute: s.Window.End, Days: uint8(s.Window.Days)}
	}
	return out
}

func ruleToDTO(r policy.Rule) RuleDTO {
	out := RuleDTO{
		Action:          r.Action.String(),
		NoiseEpsilon:    r.NoiseEpsilon,
		MinAggregationK: r.MinAggregationK,
	}
	if r.MaxGranularity.Valid() {
		out.MaxGranularity = r.MaxGranularity.String()
	}
	return out
}

// PreferenceToDTO converts an internal preference to wire form.
func PreferenceToDTO(p policy.Preference) PreferenceDTO {
	return PreferenceDTO{
		ID:     p.ID,
		UserID: p.UserID,
		Name:   p.Name,
		Scope:  scopeToDTO(p.Scope),
		Rule:   ruleToDTO(p.Rule),
		Source: p.Source,
	}
}

// PreferenceFromDTO converts wire form back: the DTO encoded and read
// by PUT /v1/preferences' decoder. bench/replay.go is its one caller.
func PreferenceFromDTO(d PreferenceDTO) (policy.Preference, error) {
	body, err := json.Marshal(d)
	if err != nil {
		return policy.Preference{}, err
	}
	var p policy.Preference
	if err := decodePreference(body, &p, nil); err != nil {
		return policy.Preference{}, err
	}
	return p, nil
}

// PolicyToDTO converts a building policy to its listing form.
func PolicyToDTO(p policy.BuildingPolicy) PolicyDTO {
	out := PolicyDTO{
		ID:          p.ID,
		Name:        p.Name,
		Description: p.Description,
		Owner:       p.Owner,
		Kind:        p.Kind.String(),
		Scope:       scopeToDTO(p.Scope),
		Override:    p.Override,
	}
	if !p.Retention.IsZero() {
		out.Retention = p.Retention.String()
	}
	return out
}

// RequestFromDTO converts a wire request, validating enums.
func RequestFromDTO(d RequestDTO) (enforce.Request, error) {
	out := enforce.Request{
		ServiceID: d.ServiceID,
		Purpose:   policy.Purpose(d.Purpose),
		Kind:      sensor.ObservationKind(d.Kind),
		SubjectID: d.SubjectID,
		SpaceID:   d.SpaceID,
		Time:      d.Time,
		From:      d.From,
		To:        d.To,
		AfterSeq:  d.AfterSeq,
		Limit:     d.Limit,
	}
	if d.Granularity != "" {
		g, err := policy.ParseGranularity(d.Granularity)
		if err != nil {
			return enforce.Request{}, err
		}
		out.Granularity = g
	}
	return out, nil
}

// RequestToDTO converts an internal request to wire form.
func RequestToDTO(r enforce.Request) RequestDTO {
	out := RequestDTO{
		ServiceID: r.ServiceID,
		Purpose:   string(r.Purpose),
		Kind:      string(r.Kind),
		SubjectID: r.SubjectID,
		SpaceID:   r.SpaceID,
		Time:      r.Time,
		From:      r.From,
		To:        r.To,
		AfterSeq:  r.AfterSeq,
		Limit:     r.Limit,
	}
	if r.Granularity.Valid() {
		out.Granularity = r.Granularity.String()
	}
	return out
}

func notificationToDTO(n enforce.Notification) NotificationDTO {
	return NotificationDTO{UserID: n.UserID, PolicyID: n.PolicyID, PreferenceID: n.PreferenceID,
		Message: n.Message, Count: n.Count, First: n.First, Last: n.Last}
}

func observationToDTO(o sensor.Observation) ObservationDTO {
	return ObservationDTO{
		Seq:       o.Seq,
		SensorID:  o.SensorID,
		Kind:      string(o.Kind),
		Time:      o.Time,
		SpaceID:   o.SpaceID,
		DeviceMAC: o.DeviceMAC,
		UserID:    o.UserID,
		Value:     o.Value,
		Payload:   o.Payload,
	}
}

// ObservationFromDTO converts a wire observation for ingest.
func ObservationFromDTO(d ObservationDTO) sensor.Observation {
	return sensor.Observation{
		Seq:       d.Seq,
		SensorID:  d.SensorID,
		Kind:      sensor.ObservationKind(d.Kind),
		Time:      d.Time,
		SpaceID:   d.SpaceID,
		DeviceMAC: d.DeviceMAC,
		UserID:    d.UserID,
		Value:     d.Value,
		Payload:   d.Payload,
	}
}

func traceToDTO(t core.DecisionTrace) DecisionTraceDTO {
	out := DecisionTraceDTO{
		ID:                   t.ID,
		Time:                 t.Time,
		TraceID:              t.TraceID,
		Path:                 t.Path,
		ServiceID:            t.ServiceID,
		SubjectID:            t.SubjectID,
		ObsKind:              t.ObsKind,
		Purpose:              t.Purpose,
		Engine:               t.Engine,
		Allowed:              t.Allowed,
		DenyReason:           t.DenyReason,
		Granularity:          t.Granularity,
		CacheHit:             t.CacheHit,
		MatchedPolicies:      t.MatchedPolicies,
		MatchedPreferences:   t.MatchedPreferences,
		MatchedDefaults:      t.MatchedDefaults,
		Overridden:           t.Overridden,
		SubjectsConsidered:   t.SubjectsConsidered,
		SubjectsReleased:     t.SubjectsReleased,
		ObservationsReleased: t.ObservationsReleased,
		ObservationsScanned:  t.ObservationsScanned,
		K:                    t.K,
		Spaces:               t.Spaces,
		SpacesSuppressed:     t.SpacesSuppressed,
		Table:                t.Table,
		PlanCached:           t.PlanCached,
		TotalMicros:          t.TotalMicros,
	}
	for s, st := range t.Stages {
		if st.Calls > 0 {
			out.Stages = append(out.Stages, TraceStageDTO{Name: core.Stage(s).String(), DurationMicros: st.Duration().Microseconds()})
		}
	}
	return out
}

func statsToDTO(s core.Stats) StatsDTO {
	return StatsDTO{
		Ingested:          s.Ingested,
		DroppedDisabled:   s.DroppedDisabled,
		DroppedUnlogged:   s.DroppedUnlogged,
		Pseudonymized:     s.Pseudonymized,
		RequestsDecided:   s.RequestsDecided,
		RequestsDenied:    s.RequestsDenied,
		NotificationsSent: s.NotificationsSent,
	}
}

// AuditEntryDTO is the wire form of one audit probe.
type AuditEntryDTO struct {
	ServiceID          string `json:"service_id"`
	Kind               string `json:"kind"`
	Purpose            string `json:"purpose"`
	Allowed            bool   `json:"allowed"`
	Granularity        string `json:"granularity,omitempty"`
	StoredObservations int    `json:"stored_observations"`
	Why                string `json:"why"`
}

// AuditDTO is the wire form of a user's transparency report.
type AuditDTO struct {
	UserID           string             `json:"user_id"`
	GeneratedAt      time.Time          `json:"generated_at"`
	Preferences      int                `json:"preferences"`
	OverridePolicies []string           `json:"override_policies,omitempty"`
	Entries          []AuditEntryDTO    `json:"entries"`
	RecentTraces     []DecisionTraceDTO `json:"recent_traces,omitempty"`
}

func auditToDTO(a core.Audit) AuditDTO {
	out := AuditDTO{
		UserID:           a.UserID,
		GeneratedAt:      a.GeneratedAt,
		Preferences:      a.Preferences,
		OverridePolicies: a.OverridePolicies,
	}
	for _, t := range a.RecentTraces {
		out.RecentTraces = append(out.RecentTraces, traceToDTO(t))
	}
	for _, e := range a.Entries {
		dto := AuditEntryDTO{
			ServiceID:          e.ServiceID,
			Kind:               string(e.Kind),
			Purpose:            string(e.Purpose),
			Allowed:            e.Allowed,
			StoredObservations: e.StoredObservations,
			Why:                e.Why,
		}
		if e.Granularity.Valid() {
			dto.Granularity = e.Granularity.String()
		}
		out.Entries = append(out.Entries, dto)
	}
	return out
}
