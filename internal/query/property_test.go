package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// TestQueryNeverLeaksDeniedRows is the executor's core privacy
// property, checked over randomized worlds: whatever the policy
// table, the observation set, and the predicate, (a) every row a
// row-mode query releases is one the naive per-row decision procedure
// permits, and (b) grouped output matches an exact oracle — a group
// with attributed rows appears iff its distinct subjects clear the
// k floor raised by every subject contributing to the result, and a
// purely environmental group is never suppressed. Each SQL predicate
// is paired with its Go mirror; testEnv's Apply is the identity, so
// the released view equals ground truth and the mirror is exact. Any
// divergence is the executor's fault: a path that projected, grouped,
// or suppressed differently than per-row enforcement dictates.
func TestQueryNeverLeaksDeniedRows(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			// Random world: users with random deny bits and floors,
			// observations scattered over sensors, spaces, and time.
			nUsers := 2 + rng.Intn(6)
			users := make([]string, nUsers)
			te := &testEnv{deny: map[string]bool{}, floors: map[string]int{}}
			for i := range users {
				users[i] = fmt.Sprintf("u%d", i)
				te.deny[users[i]] = rng.Intn(3) == 0
				te.floors[users[i]] = rng.Intn(4) // 0..3
			}
			nObs := 40 + rng.Intn(160)
			for i := 0; i < nObs; i++ {
				user := users[rng.Intn(nUsers)]
				if rng.Intn(10) == 0 {
					user = "" // unattributed
				}
				o := obsAt(uint64(i+1),
					fmt.Sprintf("ap-%d", rng.Intn(4)),
					fmt.Sprintf("s%d", rng.Intn(3)),
					user, rng.Intn(120), float64(rng.Intn(100)))
				if rng.Intn(4) == 0 {
					o.Kind = sensor.ObsBLESighting
				}
				te.obs = append(te.obs, o)
			}

			r := reqr()
			r.MinK = 1 + rng.Intn(3)

			// SQL predicates with their ground-truth mirrors; the mix
			// covers pushed conjuncts (sensor, kind, seq, space),
			// residual-only ones (value, OR), and the unpushable
			// seq >= 1 bound.
			sensorPick := fmt.Sprintf("ap-%d", rng.Intn(4))
			valuePick := float64(rng.Intn(100))
			userPick := fmt.Sprintf("u%d", rng.Intn(nUsers))
			spacePick := fmt.Sprintf("s%d", rng.Intn(3))
			preds := []struct {
				sql   string
				match func(o sensor.Observation) bool
			}{
				{"", func(o sensor.Observation) bool { return true }},
				{fmt.Sprintf(" WHERE sensor_id = '%s'", sensorPick),
					func(o sensor.Observation) bool { return o.SensorID == sensorPick }},
				{fmt.Sprintf(" WHERE value > %.0f", valuePick),
					func(o sensor.Observation) bool { return o.Value > valuePick }},
				{fmt.Sprintf(" WHERE user_id = '%s' OR space_id = '%s'", userPick, spacePick),
					func(o sensor.Observation) bool { return o.UserID == userPick || o.SpaceID == spacePick }},
				{" WHERE kind = 'wifi_access_point' AND seq > 10",
					func(o sensor.Observation) bool { return o.Kind == sensor.ObsWiFiConnect && o.Seq > 10 }},
				{fmt.Sprintf(" WHERE space_id = '%s'", spacePick),
					func(o sensor.Observation) bool { return o.SpaceID == spacePick }},
				{" WHERE seq >= 1",
					func(o sensor.Observation) bool { return o.Seq >= 1 }},
			}
			pc := preds[rng.Intn(len(preds))]

			// The naive per-row oracle: decide each matching row
			// independently.
			rowPermitted := map[uint64]bool{} // row-mode releasable
			for _, o := range te.obs {
				if te.deny[o.UserID] || !pc.match(o) {
					continue
				}
				if o.UserID == "" || te.floors[o.UserID] <= 1 {
					rowPermitted[o.Seq] = true
				}
			}

			// (a) Row mode: released ⊆ naive permits.
			res, err := Run(te.env(), r, "SELECT seq, user_id FROM observations"+pc.sql)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				seq := uint64(row[0].Num)
				if !rowPermitted[seq] {
					t.Errorf("released row seq=%d user=%q that per-row enforcement denies", seq, row[1].Str)
				}
			}

			// (b) Aggregates: exact oracle. Contributing rows are the
			// allowed rows matching the predicate; the effective floor
			// is raised only by their subjects.
			type gstat struct {
				rows     int
				subjects map[string]bool
			}
			spaces := map[string]*gstat{}
			effectiveK := r.MinK
			for _, o := range te.obs {
				if te.deny[o.UserID] || !pc.match(o) {
					continue
				}
				g := spaces[o.SpaceID]
				if g == nil {
					g = &gstat{subjects: map[string]bool{}}
					spaces[o.SpaceID] = g
				}
				g.rows++
				if o.UserID != "" {
					g.subjects[o.UserID] = true
					if f := te.floors[o.UserID]; f > effectiveK {
						effectiveK = f
					}
				}
			}
			want := map[string]int{} // space -> distinct subjects
			for space, g := range spaces {
				if len(g.subjects) == 0 || len(g.subjects) >= effectiveK {
					want[space] = len(g.subjects)
				}
			}

			res, err = Run(te.env(), r, "SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations"+pc.sql+" GROUP BY space_id")
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, row := range res.Rows {
				got[row[0].Str] = int(row[1].Num)
			}
			if len(got) != len(want) {
				t.Errorf("emitted groups = %v, oracle wants %v (k=%d)", got, want, effectiveK)
			}
			for space, n := range got {
				wn, ok := want[space]
				if !ok {
					t.Errorf("group %q emitted but oracle suppresses it (k=%d, %d subjects)", space, effectiveK, len(spaces[space].subjects))
					continue
				}
				if n != wn {
					t.Errorf("group %q counts %d distinct subjects, oracle says %d", space, n, wn)
				}
			}
		})
	}
}

// refKey is the string-keyed memo key the executor used before the
// statement-scoped ids: exactly (subject, kind, space).
type refKey struct {
	user  string
	kind  sensor.ObservationKind
	space string
}

// refExecute is the reference the compact memo is checked against: the
// executor's single pass written the plain way, with a
// map[refKey]enforce.Decision memo holding the engine's whole decision
// and map[string]struct{} sets. grouped=false is
//
//	SELECT seq, user_id, space_id, value FROM observations [WHERE value >= minValue]
//
// and grouped=true is
//
//	SELECT space_id, COUNT(*), COUNT(DISTINCT user_id), COUNT(DISTINCT sensor_id), SUM(value)
//	FROM observations [WHERE value >= minValue] GROUP BY space_id
func refExecute(env Env, r Requester, obs []sensor.Observation, grouped bool, minValue float64) ([][]Value, Stats) {
	type refGroup struct {
		space          Value
		n              int
		users, sensors map[string]struct{}
		sum            float64
		subjects       map[string]struct{}
	}
	var (
		stats    Stats
		memo     = map[refKey]enforce.Decision{}
		subjects = map[string]bool{}
		maxFloor int
		rows     [][]Value
		groups   = map[string]*refGroup{}
		order    []*refGroup
	)
	for _, o := range obs {
		stats.ScannedRows++
		key := refKey{o.UserID, o.Kind, o.SpaceID}
		d, ok := memo[key]
		if !ok {
			d = env.Decide(enforce.Request{ServiceID: r.ServiceID, Purpose: r.Purpose, Kind: o.Kind,
				SubjectID: o.UserID, SpaceID: o.SpaceID, Granularity: r.Granularity, Time: o.Time})
			memo[key] = d
			stats.Decisions++
			if o.UserID != "" {
				subjects[o.UserID] = true
			}
		}
		if !d.Allowed {
			stats.DeniedRows++
			continue
		}
		if !grouped && d.Effective.MinAggregationK > 1 && o.UserID != "" {
			stats.ExcludedRows++
			continue
		}
		rel, ok, _ := env.Apply(d, o)
		if !ok {
			stats.ExcludedRows++
			continue
		}
		stats.ReleasedRows++
		if rel.Value < minValue {
			continue
		}
		if o.UserID != "" && d.Effective.MinAggregationK > maxFloor {
			maxFloor = d.Effective.MinAggregationK
		}
		if !grouped {
			rows = append(rows, []Value{numberValue(float64(rel.Seq)), nullable(rel.UserID), nullable(rel.SpaceID), numberValue(rel.Value)})
			continue
		}
		g := groups[rel.SpaceID]
		if g == nil {
			g = &refGroup{space: nullable(rel.SpaceID), users: map[string]struct{}{}, sensors: map[string]struct{}{}, subjects: map[string]struct{}{}}
			groups[rel.SpaceID] = g
			order = append(order, g)
		}
		g.n++
		g.sum += rel.Value
		g.sensors[rel.SensorID] = struct{}{}
		if rel.UserID != "" {
			g.users[rel.UserID] = struct{}{}
		}
		if o.UserID != "" {
			g.subjects[o.UserID] = struct{}{}
		}
	}
	stats.Subjects = len(subjects)
	stats.EffectiveK = r.MinK
	if stats.EffectiveK < 1 {
		stats.EffectiveK = 1
	}
	if maxFloor > stats.EffectiveK {
		stats.EffectiveK = maxFloor
	}
	for _, g := range order {
		if k := stats.EffectiveK; k > 1 && len(g.subjects) > 0 && len(g.subjects) < k {
			stats.SuppressedGroups++
			continue
		}
		rows = append(rows, []Value{g.space, numberValue(float64(g.n)), numberValue(float64(len(g.users))),
			numberValue(float64(len(g.sensors))), numberValue(g.sum)})
	}
	return rows, stats
}

// TestCompactMemoMatchesReference is the differential property for the
// id-keyed verdict memo and the id sets: over random rows and random
// per-(subject, kind, space) decisions — denies, floors, granularity
// caps that regroup a row under its building, noise, redacted subjects
// and override notifications — the statement's rows, its Stats and the
// multiset of Env.Decide calls (each call is where an override's
// notification is delivered) equal refExecute's.
func TestCompactMemoMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nUsers, nSpaces := 2+rng.Intn(12), 2+rng.Intn(10)
			kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsPowerReading}
			var obs []sensor.Observation
			for i, n := 0, 50+rng.Intn(400); i < n; i++ {
				o := obsAt(uint64(i+1), fmt.Sprintf("ap-%d", rng.Intn(5)),
					fmt.Sprintf("b%d/%d", rng.Intn(2), rng.Intn(nSpaces)), fmt.Sprintf("u%d", rng.Intn(nUsers)), rng.Intn(120), float64(rng.Intn(100)))
				if rng.Intn(8) == 0 {
					o.UserID = ""
				}
				o.Kind = kinds[rng.Intn(len(kinds))]
				obs = append(obs, o)
			}

			// One decision per key, drawn on first use from the key's own
			// stream so both executors see the same world whatever order
			// they ask in.
			decisions := map[refKey]enforce.Decision{}
			decisionFor := func(key refKey) enforce.Decision {
				d, ok := decisions[key]
				if ok {
					return d
				}
				h := seed
				for _, c := range key.user + "|" + string(key.kind) + "|" + key.space {
					h = h*1000003 + int64(c)
				}
				krng := rand.New(rand.NewSource(h))
				if krng.Intn(5) == 0 {
					d = enforce.Decision{DenyReason: "denied", Granularity: policy.GranBuilding,
						Effective: policy.Rule{Action: policy.ActionDeny, MinAggregationK: 9}}
				} else {
					d = enforce.Decision{Allowed: true, Granularity: policy.GranExact,
						Effective: policy.Rule{MinAggregationK: krng.Intn(4)}}
					if krng.Intn(4) == 0 {
						d.Granularity = policy.GranBuilding
					}
					if krng.Intn(4) == 0 {
						d.Effective.NoiseEpsilon = float64(1 + krng.Intn(3))
					}
					if krng.Intn(6) == 0 {
						d.Granularity = policy.GranNone // Apply suppresses the row
					}
					if krng.Intn(5) == 0 {
						d.Overridden = []string{"pref-" + key.user}
						d.OverridePolicyID = "safety"
					}
				}
				decisions[key] = d
				return d
			}
			env := func(calls map[refKey]int) Env {
				return Env{
					Scan: func(obstore.Filter) []sensor.Observation { return obs },
					Decide: func(req enforce.Request) enforce.Decision {
						key := refKey{req.SubjectID, req.Kind, req.SpaceID}
						calls[key]++
						return decisionFor(key)
					},
					Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
						switch d.Granularity {
						case policy.GranNone:
							return sensor.Observation{}, false, nil
						case policy.GranBuilding:
							o.SpaceID = buildingOf(o.SpaceID)
							o.UserID = "" // coarse releases are anonymous
						}
						o.Value += 1000 * d.Effective.NoiseEpsilon
						return o, true, nil
					},
				}
			}

			r := reqr()
			r.MinK = rng.Intn(4)
			minValue := float64(rng.Intn(60))
			where := fmt.Sprintf(" WHERE value >= %.0f", minValue)
			if rng.Intn(3) == 0 {
				minValue, where = -1, ""
			}
			for _, grouped := range []bool{false, true} {
				sql := "SELECT seq, user_id, space_id, value FROM observations" + where
				if grouped {
					sql = "SELECT space_id, COUNT(*), COUNT(DISTINCT user_id), COUNT(DISTINCT sensor_id), SUM(value) FROM observations" + where + " GROUP BY space_id"
				}
				gotCalls, wantCalls := map[refKey]int{}, map[refKey]int{}
				got, err := Run(env(gotCalls), r, sql)
				if err != nil {
					t.Fatal(err)
				}
				wantRows, wantStats := refExecute(env(wantCalls), r, obs, grouped, minValue)
				if len(got.Rows) != len(wantRows) || (len(wantRows) > 0 && !reflect.DeepEqual(got.Rows, wantRows)) {
					t.Fatalf("%q\nreleased  %v\nreference %v", sql, got.Rows, wantRows)
				}
				if got.Stats != wantStats {
					t.Fatalf("%q\nstats     %+v\nreference %+v", sql, got.Stats, wantStats)
				}
				if !reflect.DeepEqual(gotCalls, wantCalls) {
					t.Fatalf("%q: Env.Decide calls differ\nexecutor  %v\nreference %v", sql, gotCalls, wantCalls)
				}
				for key, n := range gotCalls {
					if n != 1 {
						t.Fatalf("%q: %+v decided %d times in one statement", sql, key, n)
					}
				}
			}
		})
	}
}

// TestOverrideNotifiesOncePerKeyPerStatement: Env.Decide is where an
// override's notification is delivered, so the statement memo must call
// it once per (subject, kind, space) however many rows repeat the key —
// and once per key, not once per subject. Each statement runs twice in a
// row, so the second runs on tables the first released: it must
// notify again, once per key.
func TestOverrideNotifiesOncePerKeyPerStatement(t *testing.T) {
	var obs []sensor.Observation
	for i := 0; i < 1000; i++ {
		obs = append(obs, obsAt(uint64(i+1), "ap-1", "dbh/1", "mary", i%60, 1))
	}
	obs = append(obs, obsAt(1001, "ap-1", "dbh/2", "mary", 0, 1))
	delivered := map[string]int{}
	env := Env{
		Scan: func(obstore.Filter) []sensor.Observation { return obs },
		Decide: func(req enforce.Request) enforce.Decision {
			d := enforce.Decision{Allowed: true, Granularity: policy.GranExact, Overridden: []string{"pref-1"}, OverridePolicyID: "safety"}
			for range d.Overridden {
				delivered[req.SubjectID+"@"+req.SpaceID]++
			}
			return d
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) { return o, true, nil },
	}
	for _, sql := range []string{
		"SELECT seq FROM observations",
		"SELECT space_id, COUNT(DISTINCT user_id) FROM observations GROUP BY space_id",
	} {
		for run := 1; run <= 2; run++ {
			clear(delivered)
			res, err := Run(env, reqr(), sql)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.ScannedRows != 1001 || res.Stats.Decisions != 2 {
				t.Fatalf("%q run %d: stats %+v, want 1001 rows scanned under 2 decisions", sql, run, res.Stats)
			}
			if want := map[string]int{"mary@dbh/1": 1, "mary@dbh/2": 1}; !reflect.DeepEqual(delivered, want) {
				t.Fatalf("%q run %d: notifications delivered %v, want %v", sql, run, delivered, want)
			}
		}
	}
}

// TestRecycledTablesFailClosed: statements share their tables only
// through the pool, one execution at a time, and a struct is empty when
// it changes hands. Two requesters whose decisions disagree — svc-a is
// allowed every row under an override, svc-b denied every row of mary
// and dave and allowed the rest at a k floor of 2 — run row-mode,
// grouped and occupancy statements from several goroutines at once;
// every result, rows and Stats, must equal the same statement run on
// fresh tables, and a released struct must hold no entries.
func TestRecycledTablesFailClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	users := []string{"mary", "bob", "carol", "dave", ""}
	var obs []sensor.Observation
	for i := 0; i < 600; i++ {
		obs = append(obs, obsAt(uint64(i+1), fmt.Sprintf("ap-%d", rng.Intn(3)), fmt.Sprintf("dbh/%d", rng.Intn(6)), users[rng.Intn(len(users))], rng.Intn(120), float64(rng.Intn(10))))
	}
	env := Env{
		Scan: func(obstore.Filter) []sensor.Observation { return obs },
		Decide: func(req enforce.Request) enforce.Decision {
			if req.ServiceID == "svc-a" {
				return enforce.Decision{Allowed: true, Granularity: policy.GranExact, Overridden: []string{"pref-" + req.SubjectID}, OverridePolicyID: "safety"}
			}
			if req.SubjectID == "mary" || req.SubjectID == "dave" {
				return enforce.Decision{DenyReason: "preference"}
			}
			return enforce.Decision{Allowed: true, Granularity: policy.GranExact, Effective: policy.Rule{MinAggregationK: 2}}
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) { return o, true, nil },
	}
	requesters := []Requester{{ServiceID: "svc-a", Purpose: "safety"}, {ServiceID: "svc-b", Purpose: "analytics"}}
	sqls := []string{
		"SELECT seq, user_id, space_id FROM observations",
		"SELECT space_id, COUNT(DISTINCT user_id) AS n, COUNT(DISTINCT value) AS v, COUNT(*) FROM observations GROUP BY space_id",
		"SELECT space_id, count FROM occupancy",
	}
	type job struct {
		sql  string
		plan *Plan
		want *Result
	}
	var jobs []job
	for _, r := range requesters {
		for _, sql := range sqls {
			stmt, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Compile(stmt, env, r)
			if err != nil {
				t.Fatal(err)
			}
			fresh := tablesPool.New().(*tables)
			want, err := plan.execute(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if len(fresh.memo) == 0 || len(fresh.users) < 2 {
				t.Fatalf("%s %q decided nothing: %+v", r.ServiceID, sql, want.Stats)
			}
			fresh.release()
			if n := len(fresh.users) + len(fresh.spaces) + len(fresh.kinds) + len(fresh.memo) + len(fresh.verdicts) +
				len(fresh.verdictOf) + len(fresh.groups) + len(fresh.strs) + len(fresh.values); n != 0 {
				t.Fatalf("%s %q: a released tables struct holds %d entries", r.ServiceID, sql, n)
			}
			jobs = append(jobs, job{sql, plan, want})
		}
	}
	if reflect.DeepEqual(jobs[0].want.Rows, jobs[len(sqls)].want.Rows) {
		t.Fatal("the two requesters are released the same rows: the test cannot tell their tables apart")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// Every goroutine alternates requesters, so a struct one
				// of them released is soon taken by the other.
				j := jobs[(g+i)%len(jobs)]
				got, err := j.plan.Execute()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("%s %q on recycled tables:\n got %v %+v\nwant %v %+v",
						j.plan.bind.req.ServiceID, j.sql, got.Rows, got.Stats, j.want.Rows, j.want.Stats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
