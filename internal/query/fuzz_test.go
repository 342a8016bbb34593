package query

import (
	"errors"
	"testing"
)

// FuzzParseQuery drives the full parse -> compile -> execute pipeline
// with arbitrary input. Invariants: the parser never panics and fails
// only with *ParseError; statements that parse either plan cleanly or
// fail with a typed plan/enforce error; plans that compile execute
// without panicking against a small fixture; and a PlanCache, shared by
// every input so that one input binds another's template, compiles each
// input as a fresh Parse and Compile do, once when its shape may be new
// and once when it is cached.
func FuzzParseQuery(f *testing.F) {
	seeds := []string{
		"SELECT * FROM observations",
		"SELECT seq, sensor_id, time FROM observations WHERE sensor_id = 'ap-1' LIMIT 5",
		"SELECT space_id, COUNT(*) AS n FROM observations WHERE kind = 'wifi_access_point' GROUP BY space_id HAVING n >= 2 ORDER BY n DESC LIMIT 10;",
		"SELECT COUNT(DISTINCT user_id) FROM observations WHERE time BETWEEN '2017-06-07' AND '2017-06-08'",
		"SELECT * FROM occupancy WHERE count >= 2 AND space_id = 'dbh'",
		"SELECT id, allowed, deny_reason FROM audit WHERE allowed = false ORDER BY id DESC",
		"SELECT AVG(value), MIN(value), MAX(value) FROM observations WHERE NOT (user_id IN ('mary', 'bob') OR value > 3.5)",
		"SELECT user_id FROM observations WHERE device_mac != 'aa:00:00:00:00:01' AND seq > 100",
		"select time t from observations where time >= '2017-06-07 14:00:00' order by t desc",
		"SELECT -- comment\n* FROM observations",
		"SELECT 'lone string'",
		"SELECT * FROM",
		"SELECT ((((( FROM observations",
		"SELECT * FROM observations WHERE a = 'it''s'",
		"SELECT * FROM observations WHERE value = -3.25",
		";;;",
		"\x00\xff\xfe",
		"SELECT * FROM observations WHERE é = 'ü'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cache := new(PlanCache)
	f.Fuzz(func(t *testing.T, sql string) {
		te := &testEnv{obs: defaultObs(), audit: []AuditRecord{{ID: 1, SubjectID: "mary"}}}
		compileBoth(t, cache, te, reqr(), sql)
		compileBoth(t, cache, te, reqr(), sql)
		stmt, err := Parse(sql)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse(%q): non-ParseError %T: %v", sql, err, err)
			}
			if pe.Line < 1 || pe.Col < 1 {
				t.Fatalf("Parse(%q): bad error position %d:%d", sql, pe.Line, pe.Col)
			}
			return
		}
		plan, err := Compile(stmt, te.env(), reqr())
		if err != nil {
			var pe *PlanError
			var ee *EnforceError
			if !errors.As(err, &pe) && !errors.As(err, &ee) {
				t.Fatalf("Compile(%q): untyped error %T: %v", sql, err, err)
			}
			return
		}
		if _, err := plan.Execute(); err != nil {
			t.Fatalf("Execute(%q): %v", sql, err)
		}
	})
}
