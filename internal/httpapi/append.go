package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

// The read routes — /v1/requests/user, /v1/requests/occupancy and
// /v1/query — write their bodies by appending JSON into a pooled buffer
// rather than building DTOs for encoding/json to walk by reflection; a
// subject read appends each released row as the store's scan reaches
// it. The bytes are the ones json.Encoder writes for ResponseDTO and
// QueryResultDTO: the same field order, every omitempty, nil slices as
// null where the DTO has no omitempty, HTML-safe escaping and the
// trailing newline. The client, /v1/stream and the benchmark decode
// those DTOs, so the wire is unchanged; the appender tests hold each
// appender to json.Marshal of the DTO it stands for.

// appender accumulates one JSON document. A number or time JSON cannot
// represent is recorded in err, and respond answers 500 instead.
type appender struct {
	b   []byte
	err error
	// rowFn is row, bound once, for RequestUserEach's emit.
	rowFn func(*sensor.Observation)
}

// appenderPool recycles appenders; like readJSON's buffers, one grown
// past maxPooledBytes is not kept.
var appenderPool = sync.Pool{New: func() any {
	a := new(appender)
	a.rowFn = a.row
	return a
}}

func getAppender() *appender {
	a := appenderPool.Get().(*appender)
	a.b, a.err = a.b[:0], nil
	return a
}

func (a *appender) release() {
	if cap(a.b) <= maxPooledBytes {
		appenderPool.Put(a)
	}
}

// respond writes the document as a 200 — nothing reaches w before the
// whole body is built — or the recorded error as a 500.
func (a *appender) respond(w http.ResponseWriter) {
	if a.err != nil {
		writeErr(w, http.StatusInternalServerError, a.err)
		return
	}
	a.b = append(a.b, '\n') // json.Encoder ends every value with one
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(a.b)
}

func (a *appender) fail(err error) {
	if a.err == nil {
		a.err = fmt.Errorf("encode response: %w", err)
	}
}

func (a *appender) raw(s string) { a.b = append(a.b, s...) }

// key appends `,"name":` — or `"name":` as an object's first member,
// when comma is false.
func (a *appender) key(name string, comma bool) {
	if comma {
		a.b = append(a.b, ',')
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, name...)
	a.b = append(a.b, '"', ':')
}

// str appends s as a JSON string. A string holding any byte
// encoding/json would escape — a quote, a backslash, <, >, &, a control
// byte, or any non-ASCII byte (U+2028, U+2029 and invalid UTF-8 are
// rewritten) — is encoded by json.Marshal itself, so escaping is never
// re-implemented here.
func (a *appender) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			a.b = append(a.b, q...)
			return
		}
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, s...)
	a.b = append(a.b, '"')
}

func (a *appender) int(v int64)   { a.b = strconv.AppendInt(a.b, v, 10) }
func (a *appender) uint(v uint64) { a.b = strconv.AppendUint(a.b, v, 10) }
func (a *appender) bool(v bool)   { a.b = strconv.AppendBool(a.b, v) }

// float appends f the way encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// up, with a one-digit negative exponent written without its leading
// zero. ±Inf and NaN have no JSON form.
func (a *appender) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		a.fail(errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64)))
		a.raw("null")
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.b = strconv.AppendFloat(a.b, f, format, -1, 64)
	if n := len(a.b); format == 'e' && n >= 4 && a.b[n-4] == 'e' && a.b[n-3] == '-' && a.b[n-2] == '0' {
		a.b[n-2] = a.b[n-1] // e-07 → e-7
		a.b = a.b[:n-1]
	}
}

// time appends t as time.Time.MarshalJSON does: quoted RFC 3339 with
// nanoseconds. A time RFC 3339 cannot hold — a year outside [0, 9999]
// or a zone offset of 24 hours or more — is refused as MarshalJSON
// refuses it.
func (a *appender) time(t time.Time) {
	a.b = append(a.b, '"')
	n := len(a.b)
	a.b = t.AppendFormat(a.b, time.RFC3339Nano)
	// MarshalJSON's own test on the formatted bytes: a year of exactly
	// four digits, and a zone hour of two digits below 24.
	s := a.b[n:]
	zone := s[len(s)-6:]
	if s[4] != '-' || (zone[5] != 'Z' && ('0' <= zone[0] && zone[0] <= '9' || 10*(zone[1]-'0')+zone[2]-'0' >= 24)) {
		if _, err := t.MarshalJSON(); err != nil {
			a.fail(err)
		}
	}
	a.b = append(a.b, '"')
}

// strs appends a []string as an array.
func (a *appender) strs(ss []string) {
	a.b = append(a.b, '[')
	for i, s := range ss {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.str(s)
	}
	a.b = append(a.b, ']')
}

// observation appends o as its ObservationDTO.
func (a *appender) observation(o *sensor.Observation) {
	a.b = append(a.b, '{')
	if o.Seq != 0 {
		a.key("seq", false)
		a.uint(o.Seq)
		a.b = append(a.b, ',')
	}
	a.key("sensor_id", false)
	a.str(o.SensorID)
	a.key("kind", true)
	a.str(string(o.Kind))
	a.key("time", true)
	a.time(o.Time)
	if o.SpaceID != "" {
		a.key("space_id", true)
		a.str(o.SpaceID)
	}
	if o.DeviceMAC != "" {
		a.key("device_mac", true)
		a.str(o.DeviceMAC)
	}
	if o.UserID != "" {
		a.key("user_id", true)
		a.str(o.UserID)
	}
	if o.Value != 0 {
		a.key("value", true)
		a.float(o.Value)
	}
	if len(o.Payload) > 0 {
		a.key("payload", true)
		a.payload(o.Payload)
	}
	a.b = append(a.b, '}')
}

// payload appends m with its keys sorted, as encoding/json orders a
// map.
func (a *appender) payload(m map[string]string) {
	var buf [8]string
	keys := buf[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	a.b = append(a.b, '{')
	for i, k := range keys {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.str(k)
		a.b = append(a.b, ':')
		a.str(m[k])
	}
	a.b = append(a.b, '}')
}

// row appends o as the next element of an array of observations; it is
// the emit a subject read streams its released rows to.
func (a *appender) row(o *sensor.Observation) {
	if len(a.b) > 0 {
		a.b = append(a.b, ',')
	}
	a.observation(o)
}

// decision appends d as its DecisionDTO.
func (a *appender) decision(d *enforce.Decision) {
	a.b = append(a.b, '{')
	a.key("allowed", false)
	a.bool(d.Allowed)
	if d.Granularity.Valid() {
		a.key("granularity", true)
		a.str(d.Granularity.String())
	}
	if d.DenyReason != "" {
		a.key("deny_reason", true)
		a.str(d.DenyReason)
	}
	if len(d.MatchedPreferences) > 0 {
		a.key("matched_preferences", true)
		a.strs(d.MatchedPreferences)
	}
	if len(d.MatchedDefaults) > 0 {
		a.key("matched_defaults", true)
		a.strs(d.MatchedDefaults)
	}
	if d.OverridePolicyID != "" {
		a.key("matched_policy", true)
		a.str(d.OverridePolicyID)
	}
	if len(d.Overridden) > 0 {
		a.key("overridden", true)
		a.strs(d.Overridden)
	}
	if d.FromCache {
		a.key("cache_hit", true)
		a.bool(true)
	}
	a.b = append(a.b, '}')
}

// ingested appends a successful ingest's answer, ingestResult{Accepted: n}.
func (a *appender) ingested(n int) {
	a.raw(`{"accepted":`)
	a.int(int64(n))
	a.b = append(a.b, '}')
}

// trace appends t as its DecisionTraceDTO.
func (a *appender) trace(t *core.DecisionTrace) {
	a.b = append(a.b, '{')
	a.key("id", false)
	a.uint(t.ID)
	a.key("time", true)
	a.time(t.Time)
	a.optStr("trace_id", t.TraceID)
	a.key("path", true)
	a.str(t.Path)
	a.optStr("service_id", t.ServiceID)
	a.optStr("subject_id", t.SubjectID)
	a.optStr("obs_kind", t.ObsKind)
	a.optStr("purpose", t.Purpose)
	a.key("engine", true)
	a.str(t.Engine)
	a.key("allowed", true)
	a.bool(t.Allowed)
	a.optStr("deny_reason", t.DenyReason)
	a.optStr("granularity", t.Granularity)
	a.key("cache_hit", true)
	a.bool(t.CacheHit)
	a.optStrs("matched_policies", t.MatchedPolicies)
	a.optStrs("matched_preferences", t.MatchedPreferences)
	a.optStrs("matched_defaults", t.MatchedDefaults)
	a.optStrs("overridden", t.Overridden)
	a.optInt("subjects_considered", t.SubjectsConsidered)
	a.optInt("subjects_released", t.SubjectsReleased)
	a.optInt("observations_released", t.ObservationsReleased)
	a.optInt("observations_scanned", t.ObservationsScanned)
	a.optInt("k", t.K)
	a.optInt("spaces", t.Spaces)
	a.optInt("spaces_suppressed", t.SpacesSuppressed)
	a.optStr("table", t.Table)
	if t.PlanCached {
		a.key("plan_cached", true)
		a.bool(true)
	}
	a.key("stages", true)
	open := false
	for s := range t.Stages {
		st := &t.Stages[s]
		if st.Calls == 0 {
			continue
		}
		if open {
			a.b = append(a.b, ',')
		} else {
			a.b = append(a.b, '[')
			open = true
		}
		a.raw(`{"name":`)
		a.str(core.Stage(s).String())
		a.raw(`,"duration_us":`)
		a.int(st.Duration().Microseconds())
		a.b = append(a.b, '}')
	}
	if open {
		a.b = append(a.b, ']')
	} else {
		a.raw("null") // traceToDTO leaves the DTO's slice nil
	}
	a.key("total_us", true)
	a.int(t.TotalMicros)
	a.b = append(a.b, '}')
}

// optStr, optStrs and optInt append a non-first omitempty member.
func (a *appender) optStr(name, v string) {
	if v != "" {
		a.key(name, true)
		a.str(v)
	}
}

func (a *appender) optStrs(name string, v []string) {
	if len(v) > 0 {
		a.key(name, true)
		a.strs(v)
	}
}

func (a *appender) optInt(name string, v int) {
	if v != 0 {
		a.key(name, true)
		a.int(int64(v))
	}
}

// aggregates appends aggs as its []AggregateDTO.
func (a *appender) aggregates(aggs []privacy.AggregateCount) {
	a.b = append(a.b, '[')
	for i, g := range aggs {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.raw(`{"key":`)
		a.str(g.Key)
		a.raw(`,"count":`)
		a.int(int64(g.Count))
		a.b = append(a.b, '}')
	}
	a.b = append(a.b, ']')
}

// response appends r as its ResponseDTO. The observations are rows' —
// the array's elements as row appended them while the scan ran, nil for
// none — not r.Observations, which a streamed read leaves nil.
func (a *appender) response(r *core.Response, rows *appender) {
	a.raw(`{"decision":`)
	a.decision(&r.Decision)
	if rows != nil && len(rows.b) > 0 {
		if a.err == nil {
			a.err = rows.err
		}
		a.raw(`,"observations":[`)
		a.b = append(a.b, rows.b...)
		a.b = append(a.b, ']')
	}
	if len(r.Aggregates) > 0 {
		a.key("aggregates", true)
		a.aggregates(r.Aggregates)
	}
	a.optInt("subjects_considered", r.SubjectsConsidered)
	a.optInt("subjects_released", r.SubjectsReleased)
	if r.Trace.ID != 0 {
		a.key("trace", true)
		a.trace(&r.Trace)
	}
	a.b = append(a.b, '}')
}

// value appends one SQL result cell as Value.JSON renders it.
func (a *appender) value(v query.Value) {
	switch v.Kind {
	case query.KindString:
		a.str(v.Str)
	case query.KindNumber:
		a.float(v.Num())
	case query.KindBool:
		a.bool(v.Bool())
	case query.KindTime:
		// A formatted time is plain ASCII that needs no escaping.
		a.b = append(a.b, '"')
		a.b = v.Time().AppendFormat(a.b, time.RFC3339Nano)
		a.b = append(a.b, '"')
	default:
		a.raw("null")
	}
}

// queryResult appends r and its trace as a QueryResultDTO.
func (a *appender) queryResult(r *query.Result, tr *core.DecisionTrace) {
	a.raw(`{"columns":`)
	if r.Columns == nil {
		a.raw("null")
	} else {
		a.strs(r.Columns)
	}
	a.raw(`,"rows":[`)
	for i, row := range r.Rows {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.b = append(a.b, '[')
		for j, v := range row {
			if j > 0 {
				a.b = append(a.b, ',')
			}
			a.value(v)
		}
		a.b = append(a.b, ']')
	}
	a.raw(`],"stats":`)
	a.queryStats(&r.Stats)
	if tr != nil {
		a.key("trace", true)
		a.trace(tr)
	}
	a.b = append(a.b, '}')
}

// queryStats appends s as its QueryStatsDTO.
func (a *appender) queryStats(s *query.Stats) {
	a.raw(`{"scanned_rows":`)
	a.int(int64(s.ScannedRows))
	a.raw(`,"denied_rows":`)
	a.int(int64(s.DeniedRows))
	a.raw(`,"excluded_rows":`)
	a.int(int64(s.ExcludedRows))
	a.raw(`,"released_rows":`)
	a.int(int64(s.ReleasedRows))
	a.raw(`,"subjects":`)
	a.int(int64(s.Subjects))
	a.raw(`,"decisions":`)
	a.int(int64(s.Decisions))
	a.raw(`,"effective_k":`)
	a.int(int64(s.EffectiveK))
	a.raw(`,"suppressed_groups":`)
	a.int(int64(s.SuppressedGroups))
	a.b = append(a.b, '}')
}
