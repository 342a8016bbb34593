package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// twinFixtures builds two identically-populated nodes, one with the
// columnar tier (the default) and one without, so tests can assert
// the tier changes nothing about what is released.
func twinFixtures(t *testing.T, ingest func(*fixture)) (withCol, rowOnly *fixture) {
	t.Helper()
	withCol = newFixture(t)
	rowOnly = newFixtureWith(t, func(c *Config) { c.DisableColumnar = true })
	ingest(withCol)
	ingest(rowOnly)
	return withCol, rowOnly
}

func occIngest(t *testing.T, f *fixture) {
	t.Helper()
	// Three users across two rooms over the preceding hour; minute -30
	// for everyone so one bucket clears k=2, plus stragglers.
	macs := map[string]string{
		"aa:00:00:00:00:01": "ap-2",
		"aa:00:00:00:00:02": "ap-2",
		"aa:00:00:00:00:03": "ap-1",
	}
	for mac, ap := range macs {
		for _, min := range []int{-45, -30, -5} {
			if err := f.bms.Ingest(f.wifiObs(mac, ap, min)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestOccupancyRollupMatchesRowScan(t *testing.T) {
	withCol, rowOnly := twinFixtures(t, func(f *fixture) { occIngest(t, f) })

	reqs := []enforce.Request{
		{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow},
		// Minute-aligned window: still cube-served.
		{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow,
			From: testNow.Add(-40 * time.Minute), To: testNow},
		// Unaligned window: the cube cannot serve it; the unified scan
		// must still agree.
		{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow,
			From: testNow.Add(-40*time.Minute - 30*time.Second), To: testNow},
	}
	for i, req := range reqs {
		for _, k := range []int{1, 2} {
			got, err := withCol.bms.RequestOccupancy(req, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := rowOnly.bms.RequestOccupancy(req, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Aggregates, want.Aggregates) {
				t.Errorf("req %d k=%d: aggregates diverge: %+v vs %+v", i, k, got.Aggregates, want.Aggregates)
			}
			if got.SubjectsConsidered != want.SubjectsConsidered || got.SubjectsReleased != want.SubjectsReleased {
				t.Errorf("req %d k=%d: coverage diverges: %d/%d vs %d/%d", i, k,
					got.SubjectsConsidered, got.SubjectsReleased, want.SubjectsConsidered, want.SubjectsReleased)
			}
		}
	}
}

// TestOccupancyCacheInvalidation proves a memoized occupancy answer
// can never go stale: a repeated request hits the cache, a
// mid-session preference change (engine epoch bump) and a fresh
// ingest (rollup version bump) each force re-evaluation. The naive
// engine runs the same script: the cache keys on Engine.Epoch, which
// every engine must move with its rules.
func TestOccupancyCacheInvalidation(t *testing.T) {
	t.Run("compiled", func(t *testing.T) {
		testOccupancyCacheInvalidation(t, newFixture(t))
	})
	t.Run("naive", func(t *testing.T) {
		testOccupancyCacheInvalidation(t, newFixtureWith(t, func(c *Config) {
			c.Engine = enforce.NewNaive(enforce.Config{
				Spaces: c.Spaces, Services: c.Services, DefaultAllow: c.DefaultAllow,
			})
		}))
	})
}

func testOccupancyCacheInvalidation(t *testing.T, f *fixture) {
	occIngest(t, f)

	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow}

	first, err := f.bms.RequestOccupancy(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Aggregates) != 1 || first.Aggregates[0].Key != "dbh/2/r0" || first.Aggregates[0].Count != 2 {
		t.Fatalf("aggregates = %+v", first.Aggregates)
	}
	again, err := f.bms.RequestOccupancy(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Aggregates, first.Aggregates) {
		t.Fatalf("cached answer diverges: %+v", again.Aggregates)
	}
	f.bms.occCache.mu.Lock()
	hits := f.bms.occCache.hits
	f.bms.occCache.mu.Unlock()
	if hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	// Bob opts out of location sensing: the very next request must see
	// it — the preference change invalidated the enforcement epoch, so
	// the cached answer is dead.
	for _, p := range policy.Preference2NoLocation("bob") {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	after, err := f.bms.RequestOccupancy(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Aggregates) != 0 {
		t.Fatalf("aggregates after opt-out = %+v (stale cache?)", after.Aggregates)
	}

	// A new observation bumps the rollup version: the next request
	// recomputes rather than replaying the pre-ingest answer.
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:03", "ap-2", -30)); err != nil {
		t.Fatal(err)
	}
	final, err := f.bms.RequestOccupancy(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Aggregates) != 1 || final.Aggregates[0].Count != 2 {
		t.Fatalf("aggregates after ingest = %+v", final.Aggregates)
	}
}

// TestQueryUsesRollups checks the ad-hoc query layer rides the same
// cubes end to end through the BMS wiring, and that disabling the
// tier changes results not at all.
func TestQueryUsesRollups(t *testing.T) {
	withCol, rowOnly := twinFixtures(t, func(f *fixture) { occIngest(t, f) })

	const sql = "SELECT space_id, COUNT(*) AS n, COUNT(DISTINCT user_id) AS u FROM observations GROUP BY space_id ORDER BY space_id"
	got, err := withCol.bms.Query(context.Background(), conciergeRequester(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Stats.UsedRollup {
		t.Error("columnar node answered from a row scan, want rollups")
	}
	want, err := rowOnly.bms.Query(context.Background(), conciergeRequester(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if want.Result.Stats.UsedRollup {
		t.Error("row-only node claims rollups")
	}
	if !reflect.DeepEqual(got.Result.Rows, want.Result.Rows) {
		t.Errorf("released rows diverge:\ncolumnar: %v\nrow-only: %v", got.Result.Rows, want.Result.Rows)
	}
}

// TestCompactionDaemon drives StartCompaction end to end: observations
// in closed buckets seal into segments in the background, and the
// unified scan keeps answering identically throughout.
func TestCompactionDaemon(t *testing.T) {
	f := newFixture(t)
	occIngest(t, f)

	f.bms.StartCompaction(time.Millisecond)
	defer f.bms.StopCompaction()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(f.bms.Columnar().Segments()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("compaction daemon produced no segments")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The sealed history is behind the watermark now; the occupancy
	// answer is unchanged.
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow}
	resp, err := f.bms.RequestOccupancy(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Aggregates) != 1 || resp.Aggregates[0].Key != "dbh/2/r0" || resp.Aggregates[0].Count != 2 {
		t.Fatalf("aggregates after compaction = %+v", resp.Aggregates)
	}
}
