package query

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// planStatements are the statements of query_test.go and of
// FuzzParseQuery's seed corpus, with a few more that reach the
// value-dependent corners of binding: a seq bound, LIMIT, a space
// literal with a subtree, IN lists and a HAVING constant.
var planStatements = []string{
	// query_test.go
	`SELECT space_id, COUNT(*) AS n, AVG(value)
		FROM observations
		WHERE kind = 'wifi_access_point' AND (user_id = 'mary' OR user_id = 'bob')
		  AND time BETWEEN '2017-06-07' AND '2017-06-08'
		GROUP BY space_id
		HAVING n >= 2
		ORDER BY n DESC, space_id
		LIMIT 10;`,
	"SELECT * FROM observations WHERE sensor_id = 'ap-1' extra garbage",
	"SELECT * FROM observations LIMIT -1",
	"SELECT * FROM observations LIMIT 1.5",
	"SELECT * FROM observations WHERE time BETWEEN '2017-06-07'",
	"SELECT * FROM observations WHERE sensor_id = 'unterminated",
	"SELECT *\nFROM observations\nWHERE bogus ^ 3",
	`SELECT seq FROM observations
		WHERE sensor_id = 'ap-1' AND kind = 'wifi_access_point'
		  AND time >= '2017-06-07T14:00:00Z' AND time < '2017-06-07T15:00:00Z'
		  AND value > 0`,
	"SELECT seq FROM observations WHERE space_id = 'dbh'",
	"SELECT seq FROM observations WHERE seq > 3 AND time BETWEEN '2017-06-07' AND '2017-06-08'",
	"SELECT seq FROM observations WHERE sensor_id = 'ap-1' OR sensor_id = 'ap-2'",
	"SELECT seq FROM observations WHERE sensor_id = 'ap-1' AND sensor_id = 'ap-2'",
	"SELECT seq FROM observations",
	"SELECT seq, user_id FROM observations ORDER BY seq",
	"SELECT space_id, COUNT(*) AS n FROM observations GROUP BY space_id ORDER BY space_id",
	"SELECT COUNT(*), COUNT(user_id), COUNT(DISTINCT user_id), SUM(value), AVG(value), MIN(value), MAX(value) FROM observations",
	"SELECT sensor_id, COUNT(*) AS n FROM observations GROUP BY sensor_id HAVING n >= 2 ORDER BY n DESC, sensor_id LIMIT 2",
	"SELECT * FROM occupancy ORDER BY space_id",
	"SELECT space_id FROM occupancy WHERE count >= 2 ORDER BY space_id",
	"SELECT * FROM occupancy WHERE space_id = 'annex'",
	"SELECT id, allowed FROM audit ORDER BY id",
	"SELECT COUNT(*) AS n FROM audit WHERE allowed = false",
	"SELECT * FROM observations WHERE bogus = 1",
	"SELECT * FROM observations WHERE value = 'str'",
	"SELECT * FROM observations WHERE sensor_id = 3",
	"SELECT * FROM observations WHERE time > 'not a time'",
	"SELECT space_id FROM occupancy WHERE count = 2 OR sensor_id = 'ap-1'",
	"SELECT space_id FROM observations WHERE space_id != 'dbh/1' AND value > 0",
	"SELECT seq, space_id FROM observations WHERE space_id = 'dbh/1/r0'",
	"SELECT seq FROM observations WHERE space_id IN ('dbh/1/r0')",
	"SELECT seq, space_id FROM observations WHERE space_id = 'dbh' ORDER BY seq",
	"SELECT COUNT(*) AS n FROM observations WHERE value > 10",
	"SELECT seq FROM observations WHERE seq >= 1",
	"SELECT seq FROM observations WHERE seq > 0",
	"SELECT seq FROM observations WHERE seq >= 2",
	// FuzzParseQuery's seeds
	"SELECT seq, sensor_id, time FROM observations WHERE sensor_id = 'ap-1' LIMIT 5",
	"SELECT space_id, COUNT(*) AS n FROM observations WHERE kind = 'wifi_access_point' GROUP BY space_id HAVING n >= 2 ORDER BY n DESC LIMIT 10;",
	"SELECT COUNT(DISTINCT user_id) FROM observations WHERE time BETWEEN '2017-06-07' AND '2017-06-08'",
	"SELECT * FROM occupancy WHERE count >= 2 AND space_id = 'dbh'",
	"SELECT id, allowed, deny_reason FROM audit WHERE allowed = false ORDER BY id DESC",
	"SELECT AVG(value), MIN(value), MAX(value) FROM observations WHERE NOT (user_id IN ('mary', 'bob') OR value > 3.5)",
	"SELECT user_id FROM observations WHERE device_mac != 'aa:00:00:00:00:01' AND seq > 100",
	"select time t from observations where time >= '2017-06-07 14:00:00' order by t desc",
	"SELECT * FROM observations WHERE a = 'it''s'",
	"SELECT * FROM observations WHERE value = -3.25",
	"SELECT * FROM observations WHERE é = 'ü'",
	// the value-dependent corners
	"SELECT seq FROM observations WHERE seq > 5 AND seq >= 1.5 LIMIT 0",
	"SELECT seq FROM observations WHERE space_id IN ('dbh', 'annex') AND time < '2017-06-07 14:12:00'",
	"SELECT seq FROM observations WHERE space_id NOT IN ('dbh/1') AND user_id IN ('mary', 'bob', 'carol')",
	"SELECT seq FROM observations WHERE time = '2017-06-07T14:05:00Z' OR seq BETWEEN 2 AND 4",
	"SELECT seq FROM observations WHERE time > '2017-06-07 14:04:00' AND time <= '2017-06-07 14:15:00' AND device_mac = 'aa'",
	"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations WHERE kind = 'wifi_access_point' AND seq >= 1 GROUP BY space_id HAVING n >= 2 AND COUNT(*) < 9 ORDER BY space_id",
	"SELECT kind, MAX(time) AS last FROM observations GROUP BY kind HAVING last > '2017-06-07'",
	"SELECT id FROM audit WHERE id BETWEEN 1 AND 3 AND allowed = true LIMIT 2",
}

// literalAlternatives are what a statement's literals are varied to,
// by kind: values that push or stay residual, that expand to a subtree
// or not, and values that fail to coerce or to bind as a LIMIT.
var literalAlternatives = map[LitKind][]string{
	LitString: {"'ap-2'", "'dbh'", "'dbh/1'", "'annex'", "'mary'", "''", "'it''s'", "'wifi_access_point'",
		"'2017-06-07'", "'2017-06-07 14:10:00'", "'2017-06-07T14:20:00Z'", "'not a time'"},
	LitNumber: {"0", "1", "2", "5", "1.5", "5.5", "-1", "100", "99999999999", "1" + strings.Repeat("0", 400)},
	LitBool:   {"true", "false"},
}

// variants returns sql with each of its literals, one at a time,
// replaced by each alternative of its kind. Every variant has sql's
// shape. A statement that does not lex has none.
func variants(sql string) []string {
	lineStart := []int{0}
	for i := 0; i < len(sql); i++ {
		if sql[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	type span struct {
		kind       LitKind
		start, end int
	}
	var lits []span
	l := newLexer(sql)
	for {
		t, err := l.next()
		if err != nil {
			return nil
		}
		if t.kind == tokEOF {
			break
		}
		if lit, ok := literalOf(t); ok {
			lits = append(lits, span{lit.Kind, lineStart[t.line-1] + t.col - 1, l.pos})
		}
	}
	var out []string
	for _, s := range lits {
		for _, alt := range literalAlternatives[s.kind] {
			if v := sql[:s.start] + alt + sql[s.end:]; v != sql {
				out = append(out, v)
			}
		}
	}
	return out
}

// compileBoth compiles sql afresh, with Parse and Compile, and through
// cache, executes both plans and fails t unless they agree on the error
// (type, message and position), the pushed filter, the rows and the
// stats. It reports whether cache bound a cached template.
func compileBoth(t *testing.T, cache *PlanCache, te *testEnv, req Requester, sql string) (cached bool) {
	t.Helper()
	var fresh *Plan
	stmt, freshErr := Parse(sql)
	if freshErr == nil {
		fresh, freshErr = Compile(stmt, te.env(), req)
	}
	plan, cached, _, err := cache.Compile(sql, te.env(), req)
	if !reflect.DeepEqual(err, freshErr) {
		t.Fatalf("%q as %+v: cached path (bound %v) fails with %#v, a fresh compile with %#v", sql, req, cached, err, freshErr)
	}
	if err != nil {
		if cached {
			t.Fatalf("%q: a failed compile reports a cached template", sql)
		}
		return false
	}
	if got, want := plan.PushedFilter(), fresh.PushedFilter(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%q as %+v: cached path (bound %v) pushes %+v, a fresh compile %+v", sql, req, cached, got, want)
	}
	got, gotErr := plan.Execute()
	want, wantErr := fresh.Execute()
	if !reflect.DeepEqual(gotErr, wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q as %+v: cached path (bound %v) answers %+v (%v), a fresh compile %+v (%v)", sql, req, cached, got, gotErr, want, wantErr)
	}
	return cached
}

// TestBoundPlanMatchesFreshCompile: a statement bound to the template
// its shape compiled to — from a statement with other literals — plans
// and answers exactly as a fresh Parse and Compile of its own text, and
// fails with exactly the fresh error, position included. Every variant
// that compiles afresh is bound from the cache, so binding redoes all
// that depends on a value: coercion, pushdown, space expansion and
// LIMIT.
func TestBoundPlanMatchesFreshCompile(t *testing.T) {
	te := &testEnv{obs: defaultObs(), floors: map[string]int{"carol": 2},
		audit: []AuditRecord{{ID: 1, SubjectID: "mary"}, {ID: 2, SubjectID: "mary", Allowed: true}, {ID: 3, SubjectID: "mary"}}}
	bound := 0
	for _, sql := range planStatements {
		vs := variants(sql)
		if len(vs) == 0 {
			continue
		}
		cache := new(PlanCache)
		compileBoth(t, cache, te, reqr(), sql)
		compiled := false
		for _, v := range vs {
			stmt, err := Parse(v)
			if err == nil {
				_, err = Compile(stmt, te.env(), reqr())
			}
			hit := compileBoth(t, cache, te, reqr(), v)
			if err == nil && compiled && !hit {
				t.Errorf("%q compiles afresh but was not bound from its shape's template", v)
			}
			if hit {
				bound++
			}
			compiled = compiled || err == nil
		}
	}
	t.Logf("%d variants bound from a cached template", bound)
	if bound < 200 {
		t.Fatalf("only %d variants were bound from a cached template", bound)
	}
}

// TestPlanCacheIsolatesRequesters: requesters that differ in service,
// purpose, granularity or k and send one shape each get their own
// answer, the one a fresh compile gives them, and a requester the
// shape's table refuses is refused although the shape is cached. The
// requesters run at once over one cache.
func TestPlanCacheIsolatesRequesters(t *testing.T) {
	newEnv := func() *testEnv {
		return &testEnv{obs: defaultObs(), floors: map[string]int{"carol": 2},
			audit: []AuditRecord{{ID: 1, SubjectID: "mary"}, {ID: 2, SubjectID: "bob"}}}
	}
	requesters := []Requester{
		{ServiceID: "svc-1", Purpose: "analytics", UserID: "mary"},
		{ServiceID: "svc-deny", Purpose: "analytics", UserID: "mary"},
		{ServiceID: "svc-1", Purpose: "marketing", UserID: "mary"},
		{ServiceID: "svc-1", Purpose: "analytics", UserID: "bob", Granularity: policy.GranBuilding},
		{ServiceID: "svc-1", Purpose: "analytics", UserID: "mary", MinK: 3},
		{Purpose: "analytics", UserID: "mary"},
		{ServiceID: "svc-1", Purpose: "analytics"},
	}
	// Decisions and releases depend on every requester field: svc-deny
	// is denied everything, marketing is denied bob's rows and a coarse
	// granularity releases every row at the building.
	isolating := func(te *testEnv) Env {
		env := te.env()
		env.Decide = func(req enforce.Request) enforce.Decision {
			if req.ServiceID == "svc-deny" || req.Purpose == "marketing" && req.SubjectID == "bob" {
				return enforce.Decision{DenyReason: "test deny"}
			}
			return enforce.Decision{Allowed: true, Granularity: req.Granularity,
				Effective: policy.Rule{MinAggregationK: te.floors[req.SubjectID]}}
		}
		env.Apply = func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			if d.Granularity == policy.GranBuilding {
				o.SpaceID = "dbh"
			}
			return o, true, nil
		}
		return env
	}
	shapes := []string{
		"SELECT seq, space_id, user_id FROM observations WHERE time >= '%s' ORDER BY seq",
		"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations WHERE time >= '%s' GROUP BY space_id ORDER BY space_id",
		"SELECT * FROM occupancy WHERE time >= '%s' ORDER BY space_id",
		"SELECT id, subject_id FROM audit WHERE time >= '%s' ORDER BY id",
	}
	cache := new(PlanCache)
	var wg sync.WaitGroup
	for i, req := range requesters {
		wg.Add(1)
		go func(i int, req Requester) {
			defer wg.Done()
			te := newEnv()
			env := isolating(te)
			for round := 0; round < 20; round++ {
				for _, shape := range shapes {
					sql := fmt.Sprintf(shape, qtNow.Add(time.Duration(round+i-10)*time.Minute).Format("2006-01-02 15:04:05"))
					stmt, err := Parse(sql)
					var want *Result
					if err == nil {
						var fresh *Plan
						if fresh, err = Compile(stmt, env, req); err == nil {
							want, err = fresh.Execute()
						}
					}
					plan, _, _, gotErr := cache.Compile(sql, env, req)
					var got *Result
					if gotErr == nil {
						got, gotErr = plan.Execute()
					}
					if !reflect.DeepEqual(gotErr, err) || !reflect.DeepEqual(got, want) {
						t.Errorf("%q as %+v: cached path answers %+v (%v), a fresh compile %+v (%v)", sql, req, got, gotErr, want, err)
						return
					}
					var ee *EnforceError
					refused := req.ServiceID == "" && !strings.Contains(shape, "audit") || req.UserID == "" && strings.Contains(shape, "audit")
					if refused != errors.As(gotErr, &ee) {
						t.Errorf("%q as %+v: error %v, want refusal %v", sql, req, gotErr, refused)
						return
					}
				}
			}
		}(i, req)
	}
	wg.Wait()

	// Every shape is cached by now, and binding still refuses.
	for _, c := range []struct {
		req Requester
		sql string
	}{
		{Requester{Purpose: "analytics", UserID: "mary"}, "SELECT seq, space_id, user_id FROM observations WHERE time >= '2017-06-07' ORDER BY seq"},
		{Requester{Purpose: "analytics", UserID: "mary"}, "SELECT * FROM occupancy WHERE time >= '2017-06-07' ORDER BY space_id"},
		{Requester{ServiceID: "svc-1", Purpose: "analytics"}, "SELECT id, subject_id FROM audit WHERE time >= '2017-06-07' ORDER BY id"},
	} {
		te := newEnv()
		plan, cached, _, err := cache.Compile(c.sql, isolating(te), c.req)
		var ee *EnforceError
		if !errors.As(err, &ee) || plan != nil || cached {
			t.Errorf("%q as %+v: plan %v, bound %v, error %v; want an EnforceError", c.sql, c.req, plan, cached, err)
		}
	}
}

// TestPlanCacheSkipsLongStatements: a statement with more literals
// than maxLits, or whose shape is longer than maxShape, is never
// cached — a cached entry holds no more than a short statement's
// template — and is compiled afresh every time, as Parse and Compile
// compile it; one literal fewer, or a shape that fits, is cached.
func TestPlanCacheSkipsLongStatements(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	in := func(n int) string {
		return "SELECT seq FROM observations WHERE user_id IN (" + strings.TrimSuffix(strings.Repeat("'mary', ", n), ", ") + ")"
	}
	// alias(n)'s shape, "select seq as aaa… from observations ", is
	// 33+n bytes long.
	alias := func(n int) string {
		return "SELECT seq AS " + strings.Repeat("a", n) + " FROM observations"
	}
	fits := maxShape - 33
	for _, c := range []struct {
		sql    string
		cached bool
	}{
		{in(maxLits), true},
		{in(maxLits + 1), false},
		{alias(fits), true},
		{alias(fits + 1), false},
	} {
		cache := new(PlanCache)
		for i := 0; i < 2; i++ {
			if got := compileBoth(t, cache, te, reqr(), c.sql); got != (c.cached && i == 1) {
				t.Errorf("%.60q… call %d: bound from the cache %v", c.sql, i, got)
			}
		}
	}
}

// TestQueryShapeBindAllocs holds the service-reads workload's
// statement — one beacon's sightings over a window, with a new beacon
// and window on every call — to what lexing it, looking its shape up
// and binding it allocate: the plan (36 objects when every statement
// was parsed and compiled afresh).
func TestQueryShapeBindAllocs(t *testing.T) {
	te := &testEnv{obs: defaultObs()}
	env := te.env()
	env.ScanEach = func(obstore.Filter, func(*sensor.Observation, obstore.Codes) bool) {} // as the node wires it
	sqls, beacons := make([]string, 64), make([]string, 64)
	for i := range sqls {
		at := qtNow.Add(time.Duration(i) * time.Minute)
		beacons[i] = fmt.Sprintf("beacon-%d", i)
		sqls[i] = fmt.Sprintf("SELECT seq, time, user_id, space_id FROM observations WHERE sensor_id = '%s' AND time >= '%s' AND time < '%s'",
			beacons[i], at.Add(-time.Hour).Format(time.RFC3339), at.Format(time.RFC3339))
	}
	cache := new(PlanCache)
	if _, cached, _, err := cache.Compile(sqls[0], env, reqr()); err != nil || cached {
		t.Fatalf("first statement: cached %v, error %v; want a fresh compile", cached, err)
	}
	i := 0
	allocs := testing.AllocsPerRun(len(sqls)-2, func() { // and one warm-up call
		i++
		plan, cached, _, err := cache.Compile(sqls[i], env, reqr())
		if err != nil || !cached {
			t.Fatalf("%q: cached %v, error %v", sqls[i], cached, err)
		}
		if f := plan.PushedFilter(); f.SensorID != beacons[i] || f.From.IsZero() || f.To.IsZero() || plan.residual != nil {
			t.Fatalf("%q: pushed %+v, residual %v", sqls[i], f, plan.residual)
		}
	})
	t.Logf("lex, look up and bind: %.0f objects per statement", allocs)
	if allocs > 4 {
		t.Errorf("lex, look up and bind allocate %.0f objects per statement, above 4", allocs)
	}
}

// BenchmarkNewShapes compiles statements whose shapes the cache has
// not seen. short: two of the observation columns, in every order,
// selected over IN lists of one to six subjects — 336 shapes, sent in
// turn, so the cache fills, is emptied and never hits. long: IN lists
// of 17 to 80 subjects, more literals than a cached statement has.
// plan-cache is what such a statement costs /v1/query; parse+compile
// is the same statement compiled without the cache.
func BenchmarkNewShapes(b *testing.B) {
	env := (&testEnv{obs: defaultObs()}).env()
	in := func(n int) string { return strings.TrimSuffix(strings.Repeat("'mary', ", n), ", ") }
	var short, long []string
	for n := 1; n <= 6; n++ {
		for _, x := range obsColumns {
			for _, y := range obsColumns {
				if x != y {
					short = append(short, fmt.Sprintf("SELECT %s, %s FROM observations WHERE user_id IN (%s) AND time >= '2017-06-07T08:00:00Z'", x, y, in(n)))
				}
			}
		}
	}
	for n := 17; n <= 80; n++ {
		long = append(long, fmt.Sprintf("SELECT seq, space_id FROM observations WHERE user_id IN (%s) AND time >= '2017-06-07T08:00:00Z'", in(n)))
	}
	for _, set := range []struct {
		name string
		sqls []string
	}{{"short", short}, {"long", long}} {
		sqls := set.sqls
		b.Run(set.name+"/parse+compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stmt, err := Parse(sqls[i%len(sqls)])
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Compile(stmt, env, reqr()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(set.name+"/plan-cache", func(b *testing.B) {
			b.ReportAllocs()
			cache := new(PlanCache)
			for i := 0; i < b.N; i++ {
				if _, cached, _, err := cache.Compile(sqls[i%len(sqls)], env, reqr()); err != nil || cached {
					b.Fatalf("cached %v, error %v; want a miss", cached, err)
				}
			}
		})
	}
}
