package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/colstore"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// segWorld is one randomized policy world for the columnar-equivalence
// property: per-subject deny bits, k floors, granularity coarsening
// (released location collapses to the building), and noise (a
// deterministic value offset standing in for per-row randomness).
type segWorld struct {
	deny   map[string]bool
	floors map[string]int
	coarse map[string]bool
	noisy  map[string]bool
}

func buildingOf(space string) string {
	if i := strings.IndexByte(space, '/'); i > 0 {
		return space[:i]
	}
	return space
}

// envOver wires a query Env for this world over the given row source.
// Decide and Apply are shared stubs, so any divergence between two envs
// is the row source's fault.
func (w *segWorld) envOver(scan func(obstore.Filter) []sensor.Observation) Env {
	return Env{
		Scan: scan,
		Subtree: func(spaceID string) []string {
			if spaceID == "A" || spaceID == "B" {
				return []string{spaceID, spaceID + "/1", spaceID + "/2"}
			}
			return []string{spaceID}
		},
		Decide: func(req enforce.Request) enforce.Decision {
			if w.deny[req.SubjectID] {
				return enforce.Decision{DenyReason: "denied"}
			}
			d := enforce.Decision{
				Allowed:     true,
				Granularity: policy.GranExact,
				Effective:   policy.Rule{MinAggregationK: w.floors[req.SubjectID]},
			}
			if w.noisy[req.SubjectID] {
				d.Effective.NoiseEpsilon = 1
			}
			return d
		},
		Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
			out := o
			if w.coarse[o.UserID] {
				out.SpaceID = buildingOf(o.SpaceID)
			}
			if d.Effective.NoiseEpsilon > 0 {
				out.Value += 1000 // deterministic stand-in for per-row noise
			}
			return out, true, nil
		},
	}
}

// TestSegmentQueryMatchesRowScan is the columnar tier's equivalence
// property, checked over randomized worlds and policies: every query
// over the segments and the hot tail must release exactly what the
// plain row scan releases: same columns, same rows, same order,
// including k-floor suppression, coarsened-space regrouping and noise.
// Worlds mix sealed segments, an uncompacted tail, and GDPR-erasure
// tombstones, so both halves of the watermark split are on the hook.
// The executor never calls the Env.Rollup shim, however the statement
// is shaped.
// The row scan runs over a twin store no tier is attached to — it keeps
// every row, where the tier's own store evicts what the segments hold.
// The columnar side reads the tier's store through Scan, as the node
// does, so sealed rows reach the executor with their dictionary codes.
func TestSegmentQueryMatchesRowScan(t *testing.T) {
	base := qtNow // 2017-06-07 14:00:00 UTC — minute- and hour-aligned
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))

			nUsers := 3 + rng.Intn(4)
			users := make([]string, nUsers)
			w := &segWorld{
				deny:   map[string]bool{},
				floors: map[string]int{},
				coarse: map[string]bool{},
				noisy:  map[string]bool{},
			}
			for i := range users {
				users[i] = fmt.Sprintf("u%d", i)
				w.deny[users[i]] = rng.Intn(4) == 0
				w.floors[users[i]] = rng.Intn(4)
				w.coarse[users[i]] = rng.Intn(4) == 0
				w.noisy[users[i]] = rng.Intn(4) == 0
			}

			src, twin := obstore.New(), obstore.New()
			cs, err := colstore.Open(colstore.Config{
				BucketDur: time.Minute,
				Clock:     func() time.Time { return base },
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.AttachStore(src); err != nil {
				t.Fatal(err)
			}

			spaces := []string{"A/1", "A/2", "B/1", "B/2"}
			appendRandom := func(n int) {
				for i := 0; i < n; i++ {
					user := users[rng.Intn(nUsers)]
					if rng.Intn(8) == 0 {
						user = ""
					}
					o := sensor.Observation{
						SensorID: fmt.Sprintf("ap-%d", rng.Intn(4)),
						Kind:     sensor.ObsWiFiConnect,
						Time: base.Add(-time.Duration(1+rng.Intn(175)) * time.Minute).
							Add(-time.Duration(rng.Intn(60)) * time.Second),
						SpaceID: spaces[rng.Intn(len(spaces))],
						UserID:  user,
						Value:   float64(rng.Intn(50)),
					}
					if rng.Intn(4) == 0 {
						o.Kind = sensor.ObsBLESighting
					}
					for _, st := range []*obstore.Store{src, twin} {
						if _, err := st.Append(o); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			nObs := 150 + rng.Intn(250)
			appendRandom(nObs * 3 / 5)
			if _, err := cs.CompactOnce(); err != nil {
				t.Fatal(err)
			}
			appendRandom(nObs - nObs*3/5) // stays in the row-store tail
			if rng.Intn(2) == 0 {
				// Erasure: tombstones over sealed rows.
				if got, want := src.DeleteUser(users[0], nil), twin.DeleteUser(users[0], nil); got != want {
					t.Fatalf("DeleteUser removed %d rows across both tiers, the twin %d", got, want)
				}
			}
			if rng.Intn(2) == 0 {
				if _, err := cs.CompactOnce(); err != nil {
					t.Fatal(err)
				}
			}

			rowEnv := w.envOver(twin.Query)
			colEnv := w.envOver(nil)
			colEnv.ScanEach = src.Scan // sealed rows come with their segment's codes
			colEnv.Rollup = func(RollupRequest) ([]RollupEntry, bool) {
				t.Error("the executor called Env.Rollup")
				return nil, false
			}

			r := reqr()
			r.MinK = 1 + rng.Intn(3)

			h1 := base.Add(-2 * time.Hour).Format(time.RFC3339)
			h2 := base.Format(time.RFC3339)
			m1 := base.Add(-90 * time.Minute).Format(time.RFC3339)
			unaligned := base.Add(-90*time.Minute - 30*time.Second).Format(time.RFC3339)
			userPick := users[rng.Intn(nUsers)]

			queries := []string{
				"SELECT COUNT(*) FROM observations",
				"SELECT COUNT(*) AS n, COUNT(DISTINCT user_id) AS u FROM observations",
				"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations GROUP BY space_id ORDER BY n DESC, space_id",
				"SELECT kind, user_id, COUNT(*) AS n FROM observations GROUP BY kind, user_id HAVING n > 2 ORDER BY n DESC LIMIT 4",
				fmt.Sprintf("SELECT user_id, COUNT(*) AS n FROM observations WHERE user_id = '%s' GROUP BY user_id", userPick),
				fmt.Sprintf("SELECT space_id, COUNT(*) AS n FROM observations WHERE kind = 'wifi_access_point' AND time >= '%s' GROUP BY space_id ORDER BY space_id", m1),
				fmt.Sprintf("SELECT sensor_id, COUNT(*) AS n, SUM(value) AS s, AVG(value) AS a, MIN(value) AS lo, MAX(value) AS hi FROM observations WHERE time >= '%s' AND time < '%s' GROUP BY sensor_id ORDER BY sensor_id", h1, h2),
				"SELECT sensor_id, MIN(user_id) AS first, MAX(space_id) AS last FROM observations GROUP BY sensor_id ORDER BY sensor_id",
				// Unaligned window, residual predicate, spatial predicate.
				fmt.Sprintf("SELECT space_id, COUNT(*) AS n FROM observations WHERE time >= '%s' GROUP BY space_id ORDER BY space_id", unaligned),
				"SELECT space_id, COUNT(*) AS n FROM observations WHERE value >= 10 GROUP BY space_id ORDER BY space_id",
				"SELECT space_id, COUNT(*) AS n FROM observations WHERE space_id = 'A' GROUP BY space_id",
				// Occupancy, with and without predicates.
				"SELECT space_id, count FROM occupancy",
				"SELECT * FROM occupancy WHERE count >= 2 AND kind = 'wifi_access_point'",
				// Row mode exercises the unified segments+tail scan.
				"SELECT seq, sensor_id, space_id, user_id, value FROM observations ORDER BY seq",
			}

			for _, q := range queries {
				want, err := Run(rowEnv, r, q)
				if err != nil {
					t.Fatalf("row scan %q: %v", q, err)
				}
				got, err := Run(colEnv, r, q)
				if err != nil {
					t.Fatalf("columnar %q: %v", q, err)
				}
				if !reflect.DeepEqual(want.Columns, got.Columns) {
					t.Fatalf("%q: columns diverge: %v vs %v", q, want.Columns, got.Columns)
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("%q: released rows diverge\nrow scan: %v\ncolumnar: %v", q, want.Rows, got.Rows)
				}
				if got.Stats.UsedRollup {
					t.Errorf("%q: Stats.UsedRollup is set", q)
				}
			}
		})
	}
}

// TestSegmentIdsAreStatementIds: a segment's dictionary positions are
// not statement ids. One statement reads two hour segments that hold
// mary, bob, dbh/2 and wifi_access_point at different positions — the
// later hour's dictionaries gain entries that sort first ("", aaron,
// dbh/1 and bluetooth_beacon) — and hot-log rows of the same subjects.
// Every statement releases what a plain row scan releases, Stats
// included, and Env.Decide runs once per (subject, kind, space, window
// class): mary's preference coarsens her rows from 22:30, so one of her
// classes spans both segments and the other the later segment and the
// hot log.
func TestSegmentIdsAreStatementIds(t *testing.T) {
	day := time.Date(2017, 6, 7, 0, 0, 0, 0, time.UTC)
	at := func(h, m int) time.Time { return day.Add(time.Duration(h)*time.Hour + time.Duration(m)*time.Minute) }
	src, twin := obstore.New(), obstore.New()
	cs, err := colstore.Open(colstore.Config{BucketDur: time.Hour, Clock: func() time.Time { return at(23, 30) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	add := func(user, space string, kind sensor.ObservationKind, t0 time.Time, v float64) {
		o := sensor.Observation{SensorID: "ap-" + space, Kind: kind, Time: t0, SpaceID: space, UserID: user, Value: v}
		for _, st := range []*obstore.Store{src, twin} {
			if _, err := st.Append(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	for m := 0; m < 60; m += 10 {
		add("mary", "dbh/2", sensor.ObsWiFiConnect, at(21, m), float64(m))
		add("bob", "dbh/2", sensor.ObsWiFiConnect, at(21, m+5), float64(m%3))
	}
	for m := 0; m < 60; m += 5 {
		add("mary", "dbh/2", sensor.ObsWiFiConnect, at(22, m), float64(m))
		add("bob", "dbh/2", sensor.ObsWiFiConnect, at(22, m), 1)
		add("aaron", "dbh/1", sensor.ObsBLESighting, at(22, m), 2)
		add("", "dbh/1", sensor.ObsWiFiConnect, at(22, m), 3)
		add("bob", "dbh/1", sensor.ObsBLESighting, at(22, m), 4)
	}
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	add("mary", "dbh/2", sensor.ObsWiFiConnect, at(23, 10), 7) // in the open hour: the hot log's
	add("bob", "dbh/1", sensor.ObsWiFiConnect, at(23, 12), 8)
	if n := len(cs.Segments()); n != 2 {
		t.Fatalf("%d segments, want the two closed hours", n)
	}

	eng := enforce.NewCompiled(enforce.Config{DefaultAllow: true})
	for _, p := range []policy.Preference{
		{ID: "mary-late", UserID: "mary", Scope: policy.Scope{Window: policy.DailyWindow{Start: 22*60 + 30, End: 23*60 + 50}},
			Rule: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding}},
		{ID: "aaron-deny", UserID: "aaron", Rule: policy.Rule{Action: policy.ActionDeny}},
	} {
		if err := eng.AddPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	type decideKey struct {
		user, space string
		kind        sensor.ObservationKind
		class       enforce.Class
	}
	keyOf := func(user, space string, kind sensor.ObservationKind, t0 time.Time) decideKey {
		return decideKey{user, space, kind, eng.Domain(user).Class(t0)}
	}
	want := map[decideKey]int{}
	for _, o := range twin.Query(obstore.Filter{}) {
		want[keyOf(o.UserID, o.SpaceID, o.Kind, o.Time)] = 1
	}
	if len(want) != 7 { // mary twice, bob thrice, aaron and "" once
		t.Fatalf("%d (subject, kind, space, class) keys, want 7: %v", len(want), want)
	}
	env := func(calls map[decideKey]int) Env {
		return Env{
			Decide: func(req enforce.Request) enforce.Decision {
				calls[keyOf(req.SubjectID, req.SpaceID, req.Kind, req.Time)]++
				return eng.Decide(req, nil)
			},
			Domain: eng.Domain,
			Apply: func(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool, error) {
				if d.Granularity == policy.GranBuilding {
					o.SpaceID = buildingOf(o.SpaceID)
				}
				return o, true, nil
			},
		}
	}

	// The column side reads the store's own Scan, codes and all; the
	// precondition is that the codes differ where the strings agree.
	dicts := map[*obstore.Dicts]bool{}
	hot := 0
	for _, sql := range []string{
		"SELECT seq, user_id, space_id, kind, value FROM observations",
		"SELECT space_id, kind, COUNT(*) AS n, COUNT(DISTINCT user_id) AS u, SUM(value) AS s FROM observations GROUP BY space_id, kind",
		"SELECT user_id, COUNT(DISTINCT space_id) AS s, COUNT(DISTINCT kind) AS k, MAX(value) AS hi FROM observations GROUP BY user_id",
		"SELECT COUNT(*) AS n, COUNT(DISTINCT user_id) AS u, COUNT(DISTINCT space_id) AS s FROM observations",
		"SELECT space_id, count FROM occupancy",
	} {
		for _, k := range []int{1, 2} {
			r := reqr()
			r.MinK = k
			rowCalls, colCalls := map[decideKey]int{}, map[decideKey]int{}
			rowEnv, colEnv := env(rowCalls), env(colCalls)
			rowEnv.Scan = twin.Query
			colEnv.ScanEach = func(f obstore.Filter, visit func(*sensor.Observation, obstore.Codes) bool) {
				src.Scan(f, func(o *sensor.Observation, c obstore.Codes) bool {
					if c.Dicts == nil {
						hot++
					} else {
						dicts[c.Dicts] = true
					}
					return visit(o, c)
				})
			}
			rowRes, err := Run(rowEnv, r, sql)
			if err != nil {
				t.Fatalf("row scan %q: %v", sql, err)
			}
			colRes, err := Run(colEnv, r, sql)
			if err != nil {
				t.Fatalf("segments %q: %v", sql, err)
			}
			if !reflect.DeepEqual(colRes, rowRes) {
				t.Fatalf("%q k=%d:\nsegments %v %+v\nrow scan %v %+v", sql, k, colRes.Rows, colRes.Stats, rowRes.Rows, rowRes.Stats)
			}
			for side, calls := range map[string]map[decideKey]int{"row scan": rowCalls, "segments": colCalls} {
				if !reflect.DeepEqual(calls, want) {
					t.Fatalf("%q k=%d, %s: Env.Decide calls %v, want one per (subject, kind, space, class) %v", sql, k, side, calls, want)
				}
			}
		}
	}
	if len(dicts) != 2 || hot == 0 {
		t.Fatalf("the statements read %d segments' codes and %d hot rows, want 2 and some", len(dicts), hot)
	}
	positions := map[string][]int{}
	for d := range dicts {
		for _, s := range []string{"mary", "bob"} {
			positions[s] = append(positions[s], slices.Index(d.Users, s))
		}
		positions["dbh/2"] = append(positions["dbh/2"], slices.Index(d.Spaces, "dbh/2"))
		positions["wifi"] = append(positions["wifi"], slices.Index(d.Kinds, string(sensor.ObsWiFiConnect)))
	}
	for s, pos := range positions {
		if pos[0] == pos[1] {
			t.Errorf("%s sits at position %d in both segments: the test cannot tell positions from ids", s, pos[0])
		}
	}
}
