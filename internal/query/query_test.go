package query

import (
	"errors"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

var qtNow = time.Date(2017, 6, 7, 14, 0, 0, 0, time.UTC)

// testEnv wires an Env over an in-memory observation slice with a
// naive allow/deny table, capturing every Scan filter. The Scan stub
// applies the filter semantics the real store guarantees, so pushdown
// bugs surface as wrong results, not silently bigger scans.
type testEnv struct {
	obs     []sensor.Observation
	deny    map[string]bool // subjectID -> denied
	floors  map[string]int  // subjectID -> MinAggregationK
	audit   []AuditRecord
	filters []obstore.Filter
}

func (te *testEnv) env() Env {
	return Env{
		Scan: func(f obstore.Filter) []sensor.Observation {
			te.filters = append(te.filters, f)
			var out []sensor.Observation
			for _, o := range te.obs {
				if f.SensorID != "" && o.SensorID != f.SensorID {
					continue
				}
				if f.UserID != "" && o.UserID != f.UserID {
					continue
				}
				if f.DeviceMAC != "" && o.DeviceMAC != f.DeviceMAC {
					continue
				}
				if f.Kind != "" && o.Kind != f.Kind {
					continue
				}
				if !f.From.IsZero() && o.Time.Before(f.From) {
					continue
				}
				if !f.To.IsZero() && !o.Time.Before(f.To) {
					continue
				}
				if f.AfterSeq != 0 && o.Seq <= f.AfterSeq {
					continue
				}
				if len(f.SpaceIDs) > 0 {
					ok := false
					for _, id := range f.SpaceIDs {
						if o.SpaceID == id {
							ok = true
							break
						}
					}
					if !ok {
						continue
					}
				}
				out = append(out, o)
				if f.Limit > 0 && len(out) >= f.Limit {
					break
				}
			}
			return out
		},
		Subtree: func(spaceID string) []string {
			if spaceID == "dbh" {
				return []string{"dbh", "dbh/1", "dbh/1/r0"}
			}
			return []string{spaceID}
		},
		Decide: func(req enforce.Request) enforce.Decision {
			if te.deny[req.SubjectID] {
				return enforce.Decision{DenyReason: "test deny"}
			}
			return enforce.Decision{
				Allowed:     true,
				Granularity: policy.GranExact,
				Effective:   policy.Rule{MinAggregationK: te.floors[req.SubjectID]},
			}
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			return o, true, nil
		},
		AuditRecords: func(subjectID string) []AuditRecord {
			var out []AuditRecord
			for _, r := range te.audit {
				if r.SubjectID == subjectID {
					out = append(out, r)
				}
			}
			return out
		},
	}
}

func obsAt(seq uint64, sensorID, space, user string, min int, value float64) sensor.Observation {
	return sensor.Observation{
		Seq:      seq,
		SensorID: sensorID,
		Kind:     sensor.ObsWiFiConnect,
		Time:     qtNow.Add(time.Duration(min) * time.Minute),
		SpaceID:  space,
		UserID:   user,
		Value:    value,
	}
}

func defaultObs() []sensor.Observation {
	return []sensor.Observation{
		obsAt(1, "ap-1", "dbh/1/r0", "mary", 0, 1),
		obsAt(2, "ap-1", "dbh/1/r0", "bob", 5, 2),
		obsAt(3, "ap-2", "dbh/1", "mary", 10, 3),
		obsAt(4, "ap-2", "dbh/1", "carol", 15, 4),
		obsAt(5, "ap-3", "annex", "bob", 20, 5),
		obsAt(6, "ap-3", "annex", "", 25, 6),
	}
}

func reqr() Requester {
	return Requester{ServiceID: "svc-1", Purpose: "analytics", UserID: "mary"}
}

func mustRun(t *testing.T, te *testEnv, r Requester, sql string) *Result {
	t.Helper()
	res, err := Run(te.env(), r, sql)
	if err != nil {
		t.Fatalf("Run(%q): %v", sql, err)
	}
	return res
}

func TestParseFullStatement(t *testing.T) {
	stmt, err := Parse(`
		SELECT space_id, COUNT(*) AS n, AVG(value)
		FROM observations
		WHERE kind = 'wifi_access_point' AND (user_id = 'mary' OR user_id = 'bob')
		  AND time BETWEEN '2017-06-07' AND '2017-06-08'
		GROUP BY space_id
		HAVING n >= 2
		ORDER BY n DESC, space_id
		LIMIT 10;`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if stmt.Table != "observations" {
		t.Errorf("table = %q", stmt.Table)
	}
	if len(stmt.Columns) != 3 || stmt.Columns[1].Alias != "n" || stmt.Columns[1].Agg != AggCount || !stmt.Columns[1].Star {
		t.Errorf("columns = %+v", stmt.Columns)
	}
	if stmt.Columns[2].Name() != "avg(value)" {
		t.Errorf("Name() = %q", stmt.Columns[2].Name())
	}
	if len(stmt.GroupBy) != 1 || stmt.GroupBy[0] != "space_id" {
		t.Errorf("group by = %v", stmt.GroupBy)
	}
	if stmt.Having == nil {
		t.Error("missing HAVING")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order by = %+v", stmt.OrderBy)
	}
	if stmt.Limit != 10 {
		t.Errorf("limit = %d", stmt.Limit)
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	cases := []string{
		"",
		"SELECT",
		"SELECT FROM observations",
		"SELECT * observations",
		"SELECT * FROM observations WHERE",
		"SELECT * FROM observations WHERE sensor_id",
		"SELECT * FROM observations WHERE sensor_id = ",
		"SELECT * FROM observations WHERE sensor_id = 'ap-1' extra garbage",
		"SELECT * FROM observations LIMIT -1",
		"SELECT * FROM observations LIMIT 1.5",
		"SELECT * FROM observations WHERE user_id IN ()",
		"SELECT * FROM observations WHERE time BETWEEN '2017-06-07'",
		"SELECT sum(*) FROM observations",
		"SELECT * FROM observations WHERE sensor_id = 'unterminated",
		"SELECT * FROM observations; SELECT * FROM audit",
	}
	for _, sql := range cases {
		_, err := Parse(sql)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q): want *ParseError, got %v", sql, err)
			continue
		}
		if pe.Line < 1 || pe.Col < 1 {
			t.Errorf("Parse(%q): bad position %d:%d", sql, pe.Line, pe.Col)
		}
	}
}

func TestParseMultilinePosition(t *testing.T) {
	_, err := Parse("SELECT *\nFROM observations\nWHERE bogus ^ 3")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %v", err)
	}
	if pe.Line != 3 {
		t.Errorf("line = %d, want 3", pe.Line)
	}
}

func TestPushdownFilter(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	stmt, err := Parse(`SELECT seq FROM observations
		WHERE sensor_id = 'ap-1' AND kind = 'wifi_access_point'
		  AND time >= '2017-06-07T14:00:00Z' AND time < '2017-06-07T15:00:00Z'
		  AND value > 0`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	plan, err := Compile(stmt, te.env(), reqr())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := plan.PushedFilter()
	if f.SensorID != "ap-1" {
		t.Errorf("SensorID = %q, want pushed ap-1", f.SensorID)
	}
	if f.Kind != sensor.ObsWiFiConnect {
		t.Errorf("Kind = %q", f.Kind)
	}
	if !f.From.Equal(qtNow) {
		t.Errorf("From = %v, want %v", f.From, qtNow)
	}
	if !f.To.Equal(qtNow.Add(time.Hour)) {
		t.Errorf("To = %v, want %v", f.To, qtNow.Add(time.Hour))
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(te.filters) != 1 {
		t.Fatalf("scans = %d, want 1", len(te.filters))
	}
	if te.filters[0].SensorID != "ap-1" {
		t.Errorf("scan saw SensorID %q — pushdown not applied", te.filters[0].SensorID)
	}
	// ap-1 has seqs 1 and 2 in window; value > 0 residual keeps both.
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(res.Rows))
	}
	if res.Stats.ScannedRows != 2 {
		t.Errorf("ScannedRows = %d, want 2 (pushdown pruning should pre-filter)", res.Stats.ScannedRows)
	}
}

func TestPushdownSpaceSubtree(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	stmt, _ := Parse("SELECT seq FROM observations WHERE space_id = 'dbh'")
	plan, err := Compile(stmt, te.env(), reqr())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := plan.PushedFilter()
	if len(f.SpaceIDs) != 3 {
		t.Fatalf("SpaceIDs = %v, want expanded subtree", f.SpaceIDs)
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d, want 4 (annex rows pruned)", len(res.Rows))
	}
}

func TestPushdownSeqAndBetween(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	stmt, _ := Parse("SELECT seq FROM observations WHERE seq > 3 AND time BETWEEN '2017-06-07' AND '2017-06-08'")
	plan, err := Compile(stmt, te.env(), reqr())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	f := plan.PushedFilter()
	if f.AfterSeq != 3 {
		t.Errorf("AfterSeq = %d, want 3", f.AfterSeq)
	}
	if f.From.IsZero() || f.To.IsZero() {
		t.Errorf("BETWEEN not pushed: %+v", f)
	}
}

func TestOrNotPushed(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	stmt, _ := Parse("SELECT seq FROM observations WHERE sensor_id = 'ap-1' OR sensor_id = 'ap-2'")
	plan, err := Compile(stmt, te.env(), reqr())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if plan.PushedFilter().SensorID != "" {
		t.Errorf("OR disjunction must stay residual, got filter %+v", plan.PushedFilter())
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(res.Rows))
	}
}

func TestDuplicateBoundStaysResidual(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	stmt, _ := Parse("SELECT seq FROM observations WHERE sensor_id = 'ap-1' AND sensor_id = 'ap-2'")
	plan, err := Compile(stmt, te.env(), reqr())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	res, err := plan.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// Contradictory equalities: first pushed, second residual — empty.
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func TestExecuteRefusesWithoutEnforcement(t *testing.T) {
	var nilPlan *Plan
	if _, err := nilPlan.Execute(); err == nil {
		t.Fatal("nil plan executed")
	}
	bare := &Plan{stmt: &SelectStmt{Table: TableObservations}, table: TableObservations}
	_, err := bare.Execute()
	var ee *EnforceError
	if !errors.As(err, &ee) {
		t.Fatalf("hand-built plan must fail with *EnforceError, got %v", err)
	}
}

// TestExecuteTwiceDecidesAgain: a compiled plan decides afresh on every
// Execute, judging each row at its capture time. A verdict one run
// memoized must not release rows a rule change has since denied, and
// each run's Stats count that run alone.
func TestExecuteTwiceDecidesAgain(t *testing.T) {
	te := &testEnv{deny: map[string]bool{}, obs: []sensor.Observation{
		obsAt(1, "ap-1", "dbh/1", "mary", 0, 1),
		obsAt(2, "ap-1", "dbh/2", "mary", 1, 1),
	}}
	env := te.env()
	var decidedAt []time.Time
	decide := env.Decide
	env.Decide = func(req enforce.Request) enforce.Decision {
		decidedAt = append(decidedAt, req.Time)
		return decide(req)
	}
	stmt, err := Parse("SELECT seq FROM observations")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, env, reqr())
	if err != nil {
		t.Fatal(err)
	}
	for run, want := range []struct {
		rows  int
		stats Stats
	}{
		{2, Stats{ScannedRows: 2, ReleasedRows: 2, Subjects: 1, Decisions: 2, EffectiveK: 1}},
		{0, Stats{ScannedRows: 2, DeniedRows: 2, Subjects: 1, Decisions: 2, EffectiveK: 1}},
	} {
		decidedAt = decidedAt[:0]
		res, err := plan.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want.rows || res.Stats != want.stats {
			t.Fatalf("run %d: %d rows, stats %+v; want %d rows, stats %+v", run+1, len(res.Rows), res.Stats, want.rows, want.stats)
		}
		if len(decidedAt) != len(te.obs) {
			t.Fatalf("run %d made %d decisions, want one per row", run+1, len(decidedAt))
		}
		for i, at := range decidedAt {
			if !at.Equal(te.obs[i].Time) {
				t.Fatalf("run %d decided row %d at %v, captured at %v", run+1, i+1, at, te.obs[i].Time)
			}
		}
		te.deny["mary"] = true // mary opts out
	}
}

func TestDeniedRowsNeverReleased(t *testing.T) {
	te := &testEnv{obs: defaultObs(), deny: map[string]bool{"bob": true}}
	res := mustRun(t, te, reqr(), "SELECT seq, user_id FROM observations ORDER BY seq")
	for _, row := range res.Rows {
		if row[1].Kind == KindString && row[1].Str == "bob" {
			t.Fatalf("denied subject's row released: %v", row)
		}
	}
	if res.Stats.DeniedRows != 2 {
		t.Errorf("DeniedRows = %d, want 2", res.Stats.DeniedRows)
	}
	if res.Stats.ReleasedRows != 4 {
		t.Errorf("ReleasedRows = %d, want 4", res.Stats.ReleasedRows)
	}
}

func TestAggregationFloorExcludesRowRelease(t *testing.T) {
	te := &testEnv{obs: defaultObs(), floors: map[string]int{"carol": 3}}
	res := mustRun(t, te, reqr(), "SELECT user_id FROM observations")
	for _, row := range res.Rows {
		if row[0].Kind == KindString && row[0].Str == "carol" {
			t.Fatal("subject with aggregation floor > 1 released row-level")
		}
	}
	if res.Stats.ExcludedRows != 1 {
		t.Errorf("ExcludedRows = %d, want 1", res.Stats.ExcludedRows)
	}
}

func TestGroupByKAnonymityFloor(t *testing.T) {
	// carol's preference demands k >= 3; every group must then have 3
	// distinct subjects. dbh/1/r0 has {mary,bob}, dbh/1 {mary,carol},
	// annex {bob} — all suppressed.
	te := &testEnv{obs: defaultObs(), floors: map[string]int{"carol": 3}}
	res := mustRun(t, te, reqr(), "SELECT space_id, COUNT(*) FROM observations GROUP BY space_id")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want all groups suppressed at k=3", res.Rows)
	}
	if res.Stats.EffectiveK != 3 {
		t.Errorf("EffectiveK = %d, want 3", res.Stats.EffectiveK)
	}
	if res.Stats.SuppressedGroups != 3 {
		t.Errorf("SuppressedGroups = %d, want 3", res.Stats.SuppressedGroups)
	}

	// Requester-supplied floor works the same way.
	te2 := &testEnv{obs: defaultObs()}
	r := reqr()
	r.MinK = 2
	res2 := mustRun(t, te2, r, "SELECT space_id, COUNT(*) AS n FROM observations GROUP BY space_id ORDER BY space_id")
	if len(res2.Rows) != 2 {
		t.Fatalf("rows = %v, want dbh/1 and dbh/1/r0", res2.Rows)
	}
	if res2.Rows[0][0].Str != "dbh/1" || res2.Rows[1][0].Str != "dbh/1/r0" {
		t.Errorf("rows = %v", res2.Rows)
	}
}

func TestAggregates(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	res := mustRun(t, te, reqr(),
		"SELECT COUNT(*), COUNT(user_id), COUNT(DISTINCT user_id), SUM(value), AVG(value), MIN(value), MAX(value) FROM observations")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	want := []float64{6, 5, 3, 21, 3.5, 1, 6}
	for i, w := range want {
		if row[i].Kind != KindNumber || row[i].Num != w {
			t.Errorf("col %d (%s) = %v, want %v", i, res.Columns[i], row[i], w)
		}
	}
}

func TestGlobalAggregateOverEmptyScan(t *testing.T) {
	te := &testEnv{}
	res := mustRun(t, te, reqr(), "SELECT COUNT(*), SUM(value) FROM observations")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v, want one zero row", res.Rows)
	}
	if res.Rows[0][0].Num != 0 {
		t.Errorf("COUNT(*) = %v, want 0", res.Rows[0][0])
	}
	if res.Rows[0][1].Kind != KindNull {
		t.Errorf("SUM over nothing = %v, want null", res.Rows[0][1])
	}
}

func TestHavingAndOrderAndLimit(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	res := mustRun(t, te, reqr(),
		"SELECT sensor_id, COUNT(*) AS n FROM observations GROUP BY sensor_id HAVING n >= 2 ORDER BY n DESC, sensor_id LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].Num < 2 {
			t.Errorf("HAVING violated: %v", row)
		}
	}
}

func TestOccupancy(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	res := mustRun(t, te, reqr(), "SELECT * FROM occupancy ORDER BY space_id")
	// dbh/1: {mary,carol}=2, dbh/1/r0: {mary,bob}=2, annex: {bob}=1.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Str != "annex" || res.Rows[0][1].Num != 1 {
		t.Errorf("rows = %v", res.Rows)
	}

	// A count predicate filters post-aggregation.
	res = mustRun(t, te, reqr(), "SELECT space_id FROM occupancy WHERE count >= 2 ORDER BY space_id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}

	// Scan predicates prune before counting.
	res = mustRun(t, te, reqr(), "SELECT * FROM occupancy WHERE space_id = 'annex'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "annex" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOccupancyRespectsFloors(t *testing.T) {
	te := &testEnv{obs: defaultObs(), floors: map[string]int{"carol": 3}}
	res := mustRun(t, te, reqr(), "SELECT * FROM occupancy")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want all suppressed at k=3", res.Rows)
	}
	if res.Stats.EffectiveK != 3 || res.Stats.SuppressedGroups != 3 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestAuditScopedToRequester(t *testing.T) {
	te := &testEnv{audit: []AuditRecord{
		{ID: 1, Time: qtNow, Path: "user", ServiceID: "svc-1", SubjectID: "mary", Allowed: true},
		{ID: 2, Time: qtNow, Path: "occupancy", ServiceID: "svc-2", SubjectID: "mary", Allowed: false, DenyReason: "preference"},
		{ID: 3, Time: qtNow, Path: "user", ServiceID: "svc-1", SubjectID: "bob", Allowed: true},
	}}
	res := mustRun(t, te, reqr(), "SELECT id, allowed FROM audit ORDER BY id")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v, want only mary's decisions", res.Rows)
	}

	res = mustRun(t, te, reqr(), "SELECT COUNT(*) AS n FROM audit WHERE allowed = false")
	if res.Rows[0][0].Num != 1 {
		t.Errorf("denied count = %v", res.Rows[0][0])
	}

	// No user identity -> the audit table is off limits.
	_, err := Run(te.env(), Requester{ServiceID: "svc-1"}, "SELECT * FROM audit")
	var ee *EnforceError
	if !errors.As(err, &ee) {
		t.Fatalf("want *EnforceError, got %v", err)
	}
}

func TestPlanErrors(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	cases := []string{
		"SELECT * FROM nosuch",
		"SELECT bogus FROM observations",
		"SELECT * FROM observations WHERE bogus = 1",
		"SELECT * FROM observations WHERE value = 'str'",
		"SELECT * FROM observations WHERE sensor_id = 3",
		"SELECT * FROM observations WHERE time > 'not a time'",
		"SELECT SUM(sensor_id) FROM observations",
		"SELECT sensor_id, COUNT(*) FROM observations",
		"SELECT sensor_id FROM observations GROUP BY space_id",
		"SELECT * FROM observations GROUP BY space_id",
		"SELECT value FROM observations HAVING value > 1",
		"SELECT seq FROM observations ORDER BY value",
		"SELECT COUNT(*) FROM occupancy",
		"SELECT space_id FROM occupancy GROUP BY space_id",
		"SELECT space_id FROM occupancy WHERE count = 2 OR sensor_id = 'ap-1'",
		"SELECT seq AS x, value AS x FROM observations",
	}
	for _, sql := range cases {
		_, err := Run(te.env(), reqr(), sql)
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Errorf("Run(%q): want *PlanError, got %v", sql, err)
		}
	}
}

func TestRequesterIdentityRequired(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	_, err := Run(te.env(), Requester{}, "SELECT * FROM observations")
	var ee *EnforceError
	if !errors.As(err, &ee) {
		t.Fatalf("want *EnforceError for missing service identity, got %v", err)
	}
}

func TestDecisionMemoKeepsEngineCallsLow(t *testing.T) {
	var obs []sensor.Observation
	for i := 0; i < 1000; i++ {
		obs = append(obs, obsAt(uint64(i+1), "ap-1", "dbh/1", "mary", i, 1))
	}
	te := &testEnv{obs: obs}
	res := mustRun(t, te, reqr(), "SELECT COUNT(*) FROM observations")
	if res.Stats.Decisions != 1 {
		t.Errorf("Decisions = %d, want 1 (memoized)", res.Stats.Decisions)
	}
	if res.Stats.ScannedRows != 1000 {
		t.Errorf("ScannedRows = %d", res.Stats.ScannedRows)
	}
}

func TestResidualSeesReleasedView(t *testing.T) {
	// Apply coarsens the space to the floor; a residual space_id
	// predicate must match the released value, not ground truth.
	te := &testEnv{obs: defaultObs()}
	env := te.env()
	env.Apply = func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
		o.SpaceID = "dbh/1"
		return o, true, nil
	}
	res, err := Run(env, reqr(), "SELECT space_id FROM observations WHERE space_id != 'dbh/1' AND value > 0")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v; residual evaluated against ground truth", res.Rows)
	}
}

func TestPushedSpacePredicateSeesReleasedView(t *testing.T) {
	// Apply coarsens room r0 to its floor. A pushed space_id predicate
	// still prunes the scan on ground truth, but the conjunct must be
	// re-evaluated against the released SpaceID — otherwise the result
	// (row times, counts) reveals room-level presence the subject only
	// released at floor granularity.
	coarsen := func(te *testEnv) Env {
		env := te.env()
		env.Apply = func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			if o.SpaceID == "dbh/1/r0" {
				o.SpaceID = "dbh/1"
			}
			return o, true, nil
		}
		return env
	}

	te := &testEnv{obs: defaultObs()}
	res, err := Run(coarsen(te), reqr(), "SELECT seq, space_id FROM observations WHERE space_id = 'dbh/1/r0'")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v; coarsened-away rooms must not satisfy a room-level predicate", res.Rows)
	}
	// The pushdown still pruned: only the two r0 rows were scanned.
	if len(te.filters) != 1 || len(te.filters[0].SpaceIDs) != 1 {
		t.Errorf("filters = %+v, want one scan pruned to the r0 subtree", te.filters)
	}
	if res.Stats.ScannedRows != 2 {
		t.Errorf("ScannedRows = %d, want 2 (pushdown pruning)", res.Stats.ScannedRows)
	}

	// IN takes the same path.
	te = &testEnv{obs: defaultObs()}
	res, err = Run(coarsen(te), reqr(), "SELECT seq FROM observations WHERE space_id IN ('dbh/1/r0')")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want IN conjunct re-evaluated post-coarsening", res.Rows)
	}

	// A query at the released granularity still sees the rows, at
	// their coarsened location.
	te = &testEnv{obs: defaultObs()}
	res, err = Run(coarsen(te), reqr(), "SELECT seq, space_id FROM observations WHERE space_id = 'dbh' ORDER BY seq")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v, want 4 (subtree query covers the coarsened floor)", res.Rows)
	}
	for _, row := range res.Rows {
		if row[1].Str == "dbh/1/r0" {
			t.Errorf("released ground-truth room: %v", row)
		}
	}
}

func TestEnvironmentOnlyGroupsNotSuppressed(t *testing.T) {
	// Three unattributed environmental rows plus one row from bob,
	// whose preference demands k >= 5. bob's floor suppresses the
	// group his data is in, not the subject-less ones.
	obs := []sensor.Observation{
		obsAt(1, "t-1", "dbh/1", "", 0, 20),
		obsAt(2, "t-1", "dbh/1", "", 5, 21),
		obsAt(3, "t-2", "annex", "", 10, 19),
		obsAt(4, "ap-1", "dbh/1", "bob", 15, 1),
	}
	te := &testEnv{obs: obs, floors: map[string]int{"bob": 5}}
	res := mustRun(t, te, reqr(), "SELECT sensor_id, COUNT(*) AS n FROM observations GROUP BY sensor_id ORDER BY sensor_id")
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "t-1" || res.Rows[0][1].Num != 2 || res.Rows[1][0].Str != "t-2" {
		t.Fatalf("rows = %v, want the two environmental groups", res.Rows)
	}
	if res.Stats.SuppressedGroups != 1 {
		t.Errorf("SuppressedGroups = %d, want 1 (bob's group)", res.Stats.SuppressedGroups)
	}

	// A global aggregate that includes bob's row is suppressed at his
	// floor...
	te = &testEnv{obs: obs, floors: map[string]int{"bob": 5}}
	res = mustRun(t, te, reqr(), "SELECT COUNT(*) AS n FROM observations")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want global aggregate over bob's data suppressed at k=5", res.Rows)
	}

	// ...but when a residual predicate discards his row, it no longer
	// contributes, so his floor cannot suppress the purely
	// environmental remainder.
	te = &testEnv{obs: obs, floors: map[string]int{"bob": 5}}
	res = mustRun(t, te, reqr(), "SELECT COUNT(*) AS n FROM observations WHERE value > 10")
	if len(res.Rows) != 1 || res.Rows[0][0].Num != 3 {
		t.Fatalf("rows = %v, want one row counting the 3 environmental observations", res.Rows)
	}
	if res.Stats.EffectiveK != 1 {
		t.Errorf("EffectiveK = %d, want 1 (discarded rows must not raise the floor)", res.Stats.EffectiveK)
	}
}

func TestSeqFloorBoundStaysResidual(t *testing.T) {
	// AfterSeq == 0 means "no cursor" to the store, so seq >= 1 and
	// seq > 0 cannot be pushed; they must remain residual and still
	// exclude a seq-0 row.
	obs := append([]sensor.Observation{obsAt(0, "ap-0", "annex", "", -5, 0)}, defaultObs()...)
	for _, sql := range []string{
		"SELECT seq FROM observations WHERE seq >= 1",
		"SELECT seq FROM observations WHERE seq > 0",
	} {
		te := &testEnv{obs: obs}
		res := mustRun(t, te, reqr(), sql)
		if len(te.filters) != 1 || te.filters[0].AfterSeq != 0 {
			t.Errorf("%q: filters = %+v, want no pushed cursor", sql, te.filters)
		}
		if len(res.Rows) != 6 {
			t.Errorf("%q: rows = %d, want 6 (seq-0 row excluded by residual)", sql, len(res.Rows))
		}
		for _, row := range res.Rows {
			if row[0].Num == 0 {
				t.Errorf("%q: seq-0 row released: %v", sql, row)
			}
		}
	}

	// seq >= 2 is still pushable (AfterSeq = 1).
	te := &testEnv{obs: obs}
	res := mustRun(t, te, reqr(), "SELECT seq FROM observations WHERE seq >= 2")
	if len(te.filters) != 1 || te.filters[0].AfterSeq != 1 {
		t.Errorf("filters = %+v, want AfterSeq = 1", te.filters)
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.Rows))
	}
}

func TestValueRenderAndJSON(t *testing.T) {
	if got := numberValue(3).Render(); got != "3" {
		t.Errorf("Render(3) = %q", got)
	}
	if got := numberValue(3.5).Render(); got != "3.5" {
		t.Errorf("Render(3.5) = %q", got)
	}
	if got := (Value{}).Render(); got != "" {
		t.Errorf("Render(null) = %q", got)
	}
	if got := timeValue(qtNow).JSON(); got != "2017-06-07T14:00:00Z" {
		t.Errorf("JSON(time) = %v", got)
	}
	if got := (Value{}).JSON(); got != nil {
		t.Errorf("JSON(null) = %v", got)
	}
}
