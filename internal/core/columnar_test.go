package core

import (
	"context"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
)

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

// TestOccupancyRollupMatchesRowScan: what the node releases — from the
// cubes where the window allows, from rows where it does not — is what
// the materialising reference releases from a row scan of the same node.
func TestOccupancyRollupMatchesRowScan(t *testing.T) {
	f := newFixture(t)
	occIngest(t, f)

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
			got, err := f.bms.RequestOccupancy(req, k)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := referenceOccupancy(f.bms, req, k, false)
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
// cubes end to end through the BMS wiring, and that the same statement
// compiled without the cubes scans rows to the same answer.
func TestQueryUsesRollups(t *testing.T) {
	f := newFixture(t)
	occIngest(t, f)

	const sql = "SELECT space_id, COUNT(*) AS n, COUNT(DISTINCT user_id) AS u FROM observations GROUP BY space_id ORDER BY space_id"
	got, err := f.bms.Query(context.Background(), conciergeRequester(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Stats.UsedRollup {
		t.Error("columnar node answered from a row scan, want rollups")
	}
	env := f.bms.queryEnv(context.Background())
	env.Rollup = nil
	stmt, err := query.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.Compile(stmt, env, conciergeRequester())
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.UsedRollup {
		t.Error("the statement compiled without Env.Rollup claims rollups")
	}
	if !reflect.DeepEqual(got.Result.Rows, want.Rows) {
		t.Errorf("released rows diverge:\ncolumnar: %v\nrow scan: %v", got.Result.Rows, want.Rows)
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

// TestDurableStoreWithoutColumnarDir: a node over a durable store and
// no ColumnarDir keeps its segments in <store dir>/colstore, so its
// sealed rows live there alone — a compaction leaves the hot window
// resident, the checkpoint holds the hot window only, and a restart
// serves the same rows with nothing to compact again. A directory an
// older node wrote with a WAL and no segments opens the same way and
// serves its rows before and after its first compaction.
func TestDurableStoreWithoutColumnarDir(t *testing.T) {
	openStore := func(dir string) *obstore.Store {
		t.Helper()
		s, err := obstore.OpenDurable(obstore.DurableConfig{Dir: dir, SyncInterval: time.Hour,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	open := func(dir string) *fixture {
		t.Helper()
		return newFixtureWith(t, func(c *Config) { c.Store = openStore(dir) })
	}
	compact := func(f *fixture, want int) {
		t.Helper()
		if n, err := f.bms.Columnar().CompactOnce(); err != nil || n != want {
			t.Fatalf("CompactOnce sealed %d rows (%v), want %d", n, err, want)
		}
	}

	dir := t.TempDir()
	f := open(dir)
	occIngest(t, f) // nine rows in closed buckets
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)); err != nil {
		t.Fatal(err) // one in the open bucket: the hot window
	}
	want := f.bms.Store().Query(obstore.Filter{})
	compact(f, 9)
	if n := f.bms.Store().Resident(); n != 1 {
		t.Fatalf("%d rows resident after the compaction, want the 1 in the open bucket", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "colstore", "MANIFEST.json")); err != nil {
		t.Fatalf("no manifest under the store directory: %v", err)
	}
	if err := f.bms.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.bms.Close()
	// The row store's directory alone recovers the hot window only.
	alone := openStore(dir)
	if got := alone.Query(obstore.Filter{}); !reflect.DeepEqual(got, want[len(want)-1:]) {
		t.Fatalf("the checkpoint and WAL hold %d rows, want the hot window's 1", len(got))
	}
	alone.Close()
	f = open(dir)
	if got := f.bms.Store().Query(obstore.Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a restart the node serves %d rows, want %d", len(got), len(want))
	}
	compact(f, 0)
	if n := f.bms.Store().Resident(); n != 1 {
		t.Fatalf("%d rows resident after the restart, want 1", n)
	}

	// A WAL-only directory: 128 live rows and no colstore/ beside them.
	old := t.TempDir()
	src := filepath.Join("..", "obstore", "testdata", "parent-dir")
	if err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(old, path[len(src):])
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, raw, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	f = open(old)
	rows := f.bms.Store().Query(obstore.Filter{})
	if len(rows) != 128 {
		t.Fatalf("the WAL-only directory serves %d rows, want 128", len(rows))
	}
	compact(f, 128)
	if got := f.bms.Store().Query(obstore.Filter{}); f.bms.Store().Resident() != 0 || !reflect.DeepEqual(got, rows) {
		t.Fatalf("after its first compaction: %d rows served, %d resident; want 128, 0", len(got), f.bms.Store().Resident())
	}
}
