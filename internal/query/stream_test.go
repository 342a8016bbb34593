package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// streamWorld is a random observation log plus a random policy world
// (denials, k floors, coarsening, noise), for the executor tests that
// do not need a columnar tier underneath.
func streamWorld(seed int64, n int) (*testEnv, *segWorld, []string) {
	rng := rand.New(rand.NewSource(seed))
	users := []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	w := &segWorld{deny: map[string]bool{}, floors: map[string]int{}, coarse: map[string]bool{}, noisy: map[string]bool{}}
	for _, u := range users {
		w.deny[u] = rng.Intn(4) == 0
		w.floors[u] = rng.Intn(4)
		w.coarse[u] = rng.Intn(4) == 0
		w.noisy[u] = rng.Intn(5) == 0
	}
	spaces := []string{"A/1", "A/2", "B/1", "B/2"}
	te := &testEnv{}
	for i := 0; i < n; i++ {
		o := obsAt(uint64(i+1), fmt.Sprintf("ap-%d", rng.Intn(4)), spaces[rng.Intn(len(spaces))], users[rng.Intn(len(users))], rng.Intn(180), float64(rng.Intn(50)))
		if rng.Intn(8) == 0 {
			o.UserID = ""
		}
		if rng.Intn(4) == 0 {
			o.Kind = sensor.ObsBLESighting
		}
		te.obs = append(te.obs, o)
	}
	return te, w, users
}

// TestEnvScanAdapterEquivalent: Env.Scan is not a second executor —
// the same statements through an Env that supplies only Scan and one
// that supplies only ScanEach give identical Results, Stats included.
// The ScanEach side hands the executor one scratch row and poisons it
// after every visit, so an executor that kept the pointer (a group's
// first row, a projected cell) would release poison and fail here.
func TestEnvScanAdapterEquivalent(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		te, w, users := streamWorld(seed, 400)
		slice := te.env().Scan
		scanOnly := w.envOver(slice)
		eachOnly := w.envOver(nil)
		eachOnly.ScanEach = func(f obstore.Filter, visit func(*sensor.Observation, obstore.Codes) bool) {
			var scratch sensor.Observation
			for _, o := range slice(f) {
				scratch = o
				ok := visit(&scratch, obstore.Codes{})
				scratch = sensor.Observation{Seq: ^uint64(0), SensorID: "POISON", SpaceID: "POISON", UserID: "POISON", Value: -1}
				if !ok {
					return
				}
			}
		}
		from := qtNow.Add(30 * time.Minute).Format(time.RFC3339)
		for _, sql := range []string{
			"SELECT * FROM observations",
			"SELECT seq, user_id, space_id FROM observations LIMIT 7",
			"SELECT seq, user_id, space_id FROM observations LIMIT 0",
			"SELECT seq, value FROM observations WHERE value >= 25 LIMIT 5",
			"SELECT seq, user_id FROM observations ORDER BY seq DESC LIMIT 5",
			"SELECT seq, space_id FROM observations WHERE space_id = 'A' AND time >= '" + from + "'",
			"SELECT COUNT(*) AS n, COUNT(DISTINCT user_id) AS u, MIN(value) AS lo, MAX(value) AS hi, AVG(value) AS a FROM observations",
			"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations GROUP BY space_id ORDER BY n DESC, space_id",
			"SELECT kind, user_id, COUNT(*) AS n, SUM(value) AS s FROM observations GROUP BY kind, user_id HAVING n > 2",
			"SELECT sensor_id, MIN(user_id) AS first, MAX(time) AS last FROM observations WHERE user_id = '" + users[seed%6] + "' GROUP BY sensor_id",
			"SELECT space_id, COUNT(*) AS n FROM observations WHERE value < 10 GROUP BY space_id LIMIT 2",
			"SELECT space_id, count FROM occupancy",
			"SELECT * FROM occupancy WHERE count >= 2 AND kind = 'wifi_access_point'",
		} {
			r := reqr()
			r.MinK = 1 + int(seed%3)
			want, err := Run(scanOnly, r, sql)
			if err != nil {
				t.Fatalf("seed %d Scan env %q: %v", seed, sql, err)
			}
			got, err := Run(eachOnly, r, sql)
			if err != nil {
				t.Fatalf("seed %d ScanEach env %q: %v", seed, sql, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %q: results diverge\nScan:     %+v\nScanEach: %+v", seed, sql, want, got)
			}
		}
	}
	if _, err := Run(Env{Decide: func(enforce.Request) enforce.Decision { return enforce.Decision{} },
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) { return o, true, nil }},
		reqr(), "SELECT * FROM observations"); err == nil {
		t.Fatal("an Env with neither Scan nor ScanEach compiled")
	}
}

// TestLimitStopsTheScan: a row-mode LIMIT without ORDER BY ends the
// scan once n rows are released — the stats count what was visited,
// and the rows are the first n by seq that a full scan would release.
func TestLimitStopsTheScan(t *testing.T) {
	te := &testEnv{deny: map[string]bool{"bob": true}, floors: map[string]int{"carol": 3}}
	for i := 0; i < 300; i++ {
		te.obs = append(te.obs, obsAt(uint64(i+1), "ap-1", "dbh/1", []string{"mary", "bob", "carol", "dave"}[i%4], i, float64(i)))
	}
	full := mustRun(t, te, reqr(), "SELECT seq, user_id FROM observations")
	lim := mustRun(t, te, reqr(), "SELECT seq, user_id FROM observations LIMIT 10")
	if !reflect.DeepEqual(lim.Rows, full.Rows[:10]) {
		t.Fatalf("LIMIT 10 released %v, the full scan's first 10 are %v", lim.Rows, full.Rows[:10])
	}
	// mary and dave are released, bob denied, carol excluded: the 10th
	// released row is the 20th scanned.
	want := Stats{ScannedRows: 20, DeniedRows: 5, ExcludedRows: 5, ReleasedRows: 10, Subjects: 4, Decisions: 4, EffectiveK: 1}
	if lim.Stats != want {
		t.Fatalf("LIMIT 10 stats = %+v, want %+v", lim.Stats, want)
	}
	// ORDER BY needs every row before it can cut.
	ordered := mustRun(t, te, reqr(), "SELECT seq, user_id FROM observations ORDER BY seq DESC LIMIT 10")
	if ordered.Stats.ScannedRows != 300 || len(ordered.Rows) != 10 || ordered.Rows[0][0].Num != 300 {
		t.Fatalf("ORDER BY ... LIMIT must scan everything: %+v, first row %v", ordered.Stats, ordered.Rows[0])
	}
}

// TestGroupedScanAllocsFlat: a grouped statement's allocations scale
// with its groups and the statement's distinct subjects, spaces and
// values, not with the rows scanned — four times the rows over the same
// groups allocates the same — and not with their products either: the
// memo holds a four-byte handle per (subject, kind, space) and a
// group's sets four bytes per member. A group costs no key of its own:
// its values' ids fold through the statement's pair index, groups, their
// values and states come in chunks of 4 to 64 groups, every id set is
// carved from the statement's slab, and a string value is interned by
// the row's own string. The id, memo and group-index tables are
// recycled from one execution to the next, so a warm statement does not
// regrow them. So at 20 users × 40 spaces a statement stays under 50
// objects (41 measured; 83 while each group had a key string, 137 while
// every statement built its tables from empty, 538 with an object per
// id-set regrowth, three per group and one per distinct operand), and
// ten times the groups costs at most half an object more each (0.06
// measured; 1.06 with a key string per group, 11.2 before that). The
// Stats show that the statement ran. The runs recycle one tables struct
// the way Execute does: under the race detector sync.Pool drops a
// quarter of its Puts at random, which would make Execute's count a
// coin toss.
func TestGroupedScanAllocsFlat(t *testing.T) {
	const users = 20
	allocs := func(spaces, n int) float64 {
		rng := rand.New(rand.NewSource(1))
		obs := make([]sensor.Observation, n)
		for i := range obs {
			// users × spaces (space, user) pairs, which n draws cover, so
			// both sizes see the same groups and distinct values.
			obs[i] = obsAt(uint64(i+1), "ap-1", fmt.Sprintf("dbh/%d", rng.Intn(spaces)), fmt.Sprintf("u%02d", rng.Intn(users)), i%600, 1)
		}
		env := Env{
			ScanEach: func(f obstore.Filter, visit func(*sensor.Observation, obstore.Codes) bool) {
				var scratch sensor.Observation
				for i := range obs {
					scratch = obs[i]
					if !visit(&scratch, obstore.Codes{}) {
						return
					}
				}
			},
			Decide: func(req enforce.Request) enforce.Decision {
				return enforce.Decision{Allowed: true, Granularity: policy.GranExact}
			},
			Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) { return o, true, nil },
		}
		stmt, err := Parse("SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations GROUP BY space_id")
		if err != nil {
			t.Fatal(err)
		}
		tables := newTables()
		return testing.AllocsPerRun(5, func() {
			plan, err := Compile(stmt, env, reqr())
			if err != nil {
				t.Fatal(err)
			}
			tables.reset()
			res, err := plan.execute(tables)
			if err != nil || len(res.Rows) != spaces || res.Stats.ScannedRows != n || res.Stats.Decisions != users*spaces {
				t.Fatalf("n=%d: %d groups, stats %+v, err %v", n, len(res.Rows), res.Stats, err)
			}
		})
	}
	small, large := allocs(40, 10000), allocs(40, 40000)
	t.Logf("20 users × 40 spaces: %.0f objects over 10k rows, %.0f over 40k", small, large)
	if diff := (large - small) / small; diff > 0.05 || diff < -0.05 {
		t.Fatalf("allocations follow the rows: %.0f objects over 10k rows, %.0f over 40k (%.1f%%)", small, large, 100*diff)
	}
	if small > 50 {
		t.Fatalf("%.0f objects for %d users and 40 spaces (bound 50): something allocates per group, per id-set growth or per (user, space) pair again, or the tables are not recycled",
			small, users)
	}
	wide := allocs(400, 100000)
	perGroup := (wide - small) / 360
	t.Logf("20 users × 400 spaces: %.0f objects, %.2f per added group", wide, perGroup)
	if perGroup > 0.5 {
		t.Fatalf("%.0f objects at 40 groups, %.0f at 400: %.2f per added group, want at most 0.5", small, wide, perGroup)
	}
}

// TestIdleTablesGoWithOneCollection: the tables an execution releases
// come back, emptied, to the next one, and a single collection frees
// them once idle, so what an idle node holds does not depend on how
// many collections ran since its last statement.
func TestIdleTablesGoWithOneCollection(t *testing.T) {
	first := takeTables()
	first.users["u1"] = 1
	first.release()
	again := takeTables()
	if again != first || len(again.users) != 0 {
		t.Fatalf("released tables not taken back empty: same %v, %d users", again == first, len(again.users))
	}
	again.release()
	first, again = nil, nil
	runtime.GC()
	for _, w := range spareTables.t {
		if w.Value() != nil {
			t.Fatal("idle tables survived a collection")
		}
	}
}

// TestMemoIdsNeverAlias: the memo's ids and verdict handles are wider
// than any statement can fill, so nothing wraps where a sixteen-bit
// handle or an eight-bit space id would: 75 000 subjects over 300
// spaces, every (subject, space) key under its own verdict (a distinct
// NoiseEpsilon, which the Apply stub writes into the released value),
// each key scanned twice so the second row reads its verdict back
// through the memo. De-duplicating 75 000 distinct verdicts must not be
// quadratic either: the whole test takes about a second.
func TestMemoIdsNeverAlias(t *testing.T) {
	const keys, spaces = 75000, 300
	epsilon := make(map[[2]string]float64, keys)
	obs := make([]sensor.Observation, 0, 2*keys)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < keys; i++ {
			o := obsAt(uint64(len(obs)+1), "ap-1", fmt.Sprintf("s%d", i%spaces), fmt.Sprintf("u%d", i), 0, 0)
			epsilon[[2]string{o.UserID, o.SpaceID}] = float64(i + 1)
			obs = append(obs, o)
		}
	}
	decided := map[[2]string]int{}
	env := Env{
		Scan: func(obstore.Filter) []sensor.Observation { return obs },
		Decide: func(req enforce.Request) enforce.Decision {
			decided[[2]string{req.SubjectID, req.SpaceID}]++
			return enforce.Decision{Allowed: true, Granularity: policy.GranExact,
				Effective: policy.Rule{NoiseEpsilon: epsilon[[2]string{req.SubjectID, req.SpaceID}]}}
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			o.Value = d.Effective.NoiseEpsilon
			return o, true, nil
		},
	}
	res, err := Run(env, reqr(), "SELECT user_id, space_id, value FROM observations")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Decisions != keys || len(decided) != keys || res.Stats.Subjects != keys || len(res.Rows) != 2*keys {
		t.Fatalf("stats %+v, %d keys decided, %d rows; want %d decisions and subjects, %d rows", res.Stats, len(decided), len(res.Rows), keys, 2*keys)
	}
	for _, row := range res.Rows {
		if want := epsilon[[2]string{row[0].Str, row[1].Str}]; row[2].Num != want {
			t.Fatalf("row of %s in %s released under epsilon %v, its own verdict has %v", row[0].Str, row[1].Str, row[2].Num, want)
		}
	}
	// The grouped sink's id sets at the same widths: every subject is
	// counted, in the group it belongs to.
	res, err = Run(env, reqr(), "SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations GROUP BY space_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != spaces {
		t.Fatalf("%d groups, want %d", len(res.Rows), spaces)
	}
	for _, row := range res.Rows {
		if row[1].Num != keys/spaces {
			t.Fatalf("space %s counts %v distinct subjects, want %d", row[0].Str, row[1].Num, keys/spaces)
		}
	}
}
