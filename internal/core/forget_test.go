package core

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

func TestForgetUserErasesEverythingWithoutOverrides(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 4; i++ {
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:02", "ap-1", 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
		t.Fatal(err)
	}

	deleted, retained, err := f.bms.ForgetUser("mary")
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 4 || retained != 0 {
		t.Errorf("ForgetUser = (%d, %d), want (4, 0)", deleted, retained)
	}
	if got := f.bms.Store().Count(obstore.Filter{UserID: "mary"}); got != 0 {
		t.Errorf("mary still has %d observations", got)
	}
	if got := f.bms.Store().Count(obstore.Filter{UserID: "bob"}); got != 1 {
		t.Errorf("bob's data touched: %d", got)
	}
	if got := f.bms.Preferences("mary"); len(got) != 0 {
		t.Errorf("preferences survived: %+v", got)
	}
	if _, _, err := f.bms.ForgetUser("ghost"); err == nil {
		t.Error("unknown user forgotten")
	}
}

func TestForgetUserRetainsOverrideCollections(t *testing.T) {
	f := newFixture(t)
	// Policy 2: wifi logs are an emergency-response collection with
	// override; they survive erasure.
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.bms.Ingest(f.wifiObs("aa:00:00:00:00:01", "ap-2", i)); err != nil {
			t.Fatal(err)
		}
	}
	// A BLE sighting is outside Policy 2's wifi scope: erasable.
	if err := f.bms.Ingest(sensor.Observation{
		SensorID: "ble-1", Kind: sensor.ObsBLESighting,
		DeviceMAC: "aa:00:00:00:00:01", Time: f.now,
	}); err != nil {
		t.Fatal(err)
	}
	wifi := obstore.Filter{UserID: "mary", Kind: sensor.ObsWiFiConnect}
	before := f.bms.Store().Query(wifi)
	ingested := f.bms.Store().LastSeq()

	// A subscription replaying mary's wifi history one row per page is
	// one row in when the erasure lands.
	sub, err := f.bms.Streams().Subscribe(stream.Options{
		Request: enforce.Request{ServiceID: "bms-emergency", Purpose: policy.PurposeEmergencyResponse,
			Kind: sensor.ObsWiFiConnect, SubjectID: "mary"},
		Replay: true, ReplayChunk: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	seen := map[uint64]int{}
	next := func(wait time.Duration) bool {
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		defer cancel()
		ev, err := sub.Next(ctx)
		if err != nil {
			return false
		}
		seen[ev.Seq]++
		return true
	}
	if !next(5 * time.Second) {
		t.Fatal("the replay delivered nothing")
	}

	deleted, retained, err := f.bms.ForgetUser("mary")
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 1 || retained != 3 {
		t.Errorf("ForgetUser = (%d, %d), want (1, 3)", deleted, retained)
	}
	after := f.bms.Store().Query(wifi)
	if !reflect.DeepEqual(after, before) {
		t.Errorf("override-protected wifi logs changed under erasure\n got  %+v\n want %+v", after, before)
	}
	if got := f.bms.Store().Count(obstore.Filter{UserID: "mary", Kind: sensor.ObsBLESighting}); got != 0 {
		t.Errorf("erasable BLE sighting survived: %d", got)
	}
	if got := f.bms.Store().LastSeq(); got != ingested {
		t.Errorf("tippers_obstore_ingested_total moved %d → %d: the erasure re-appended rows", ingested, got)
	}

	for next(200 * time.Millisecond) {
	}
	for _, o := range before {
		if seen[o.Seq] != 1 {
			t.Errorf("the replaying subscription saw retained row %d %d times, want once", o.Seq, seen[o.Seq])
		}
	}
	if len(seen) != len(before) {
		t.Errorf("the replaying subscription saw seqs %v, want only the retained rows' %d", seen, len(before))
	}

	// The store still counts the retained rows, under their subject.
	counted := 0
	f.bms.Store().Scan(obstore.Filter{}, func(o *sensor.Observation) bool {
		if o.UserID == "mary" {
			counted++
		}
		return true
	})
	if counted != len(before) {
		t.Errorf("the store counts %d of mary's rows, want the %d retained", counted, len(before))
	}
}

// TestForgetUserDropsInbox: override notifications about a subject do
// not outlive ForgetUser, and another subject's stay.
func TestForgetUserDropsInbox(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	for _, user := range []string{"mary", "bob"} {
		for _, p := range policy.Preference2NoLocation(user) {
			if err := f.bms.SetPreference(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := f.bms.ForgetUser("mary"); err != nil {
		t.Fatal(err)
	}
	if got := f.bms.FetchNotifications("mary"); len(got) != 0 {
		t.Errorf("mary's inbox survived ForgetUser: %+v", got)
	}
	if got := f.bms.FetchNotifications("bob"); len(got) == 0 {
		t.Error("forgetting mary emptied bob's inbox")
	}
}

// TestForgetUserStreamsNoErasedRow: rows ForgetUser erases while the
// stream hub is stalled behind them are gone from the store when its
// scan reaches them, so no subscriber receives them.
func TestForgetUserStreamsNoErasedRow(t *testing.T) {
	f := newFixture(t)
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect}
	// Attached first, sub is offered each row before the stalled
	// subscription is.
	sub := subscribe(t, f, req, 8192)
	stalled, err := f.bms.Streams().Subscribe(stream.Options{
		Request: req, Buffer: 1, Policy: stream.Block, BlockTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Cancel()

	const bob, mary = "aa:00:00:00:00:02", "aa:00:00:00:00:01"
	ingest := func(mac string, minute int) {
		t.Helper()
		if err := f.bms.Ingest(f.wifiObs(mac, "ap-1", minute)); err != nil {
			t.Fatal(err)
		}
	}
	// bob's first row fills the stalled ring; once sub has his second,
	// the hub is parked on it.
	ingest(bob, 0)
	ingest(bob, 1)
	if got := collectStream(t, sub, 2, 2*time.Second); len(got) != 2 {
		t.Fatalf("streamed %d of bob's first two rows", len(got))
	}
	for i := 0; i < 20; i++ {
		ingest(mary, 2+i)
	}
	if deleted, _, err := f.bms.ForgetUser("mary"); err != nil || deleted != 20 {
		t.Fatalf("ForgetUser = %d, %v; want 20 rows erased", deleted, err)
	}
	ingest(bob, 22)
	stalled.Cancel()

	got := collectStream(t, sub, 1, 2*time.Second)
	if len(got) != 1 || got[0].UserID != "bob" {
		t.Fatalf("after the erasure the stream carried %+v, want only bob's last row", got)
	}
}

// TestForgetUserLeavesNothingAtRest: a subject's hot rows, checkpointed
// and then sealed by a commit, are gone from every file of the node's
// directory — WAL, checkpoint.snap and colstore/ — once the commit after
// ForgetUser has run, not at the next clean shutdown.
func TestForgetUserLeavesNothingAtRest(t *testing.T) {
	const mac = "aa:00:00:00:00:01" // mary's device
	dir := t.TempDir()
	var now atomic.Int64
	f := durableFixture(t, dir, func(c *Config) {
		c.Clock = func() time.Time { return time.Unix(0, now.Load()).UTC() }
	})
	ble := func(mac string, at time.Time) {
		t.Helper()
		now.Store(at.UnixNano())
		if err := f.bms.Ingest(sensor.Observation{SensorID: "ble-1", Kind: sensor.ObsBLESighting,
			DeviceMAC: mac, Time: at}); err != nil {
			t.Fatal(err)
		}
	}
	commit := func() {
		t.Helper()
		if _, err := f.bms.Columnar().CompactOnce(); err != nil {
			t.Fatal(err)
		}
	}
	holding := func() (files []string) {
		t.Helper()
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if bytes.Contains(raw, []byte("mary")) || bytes.Contains(raw, []byte(mac)) {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}

	for i := 0; i < 5; i++ {
		ble(mac, testNow.Add(time.Duration(i)*time.Minute))
	}
	ble("aa:00:00:00:00:02", testNow.Add(10*time.Minute))
	if err := f.bms.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(holding()) == 0 {
		t.Fatal("precondition: the checkpoint should hold mary's hot rows")
	}
	// The hour closes: its commit seals mary's rows into a segment.
	ble("aa:00:00:00:00:02", testNow.Add(time.Hour+time.Minute))
	commit()
	if n := f.bms.Store().Resident(); n != 1 {
		t.Fatalf("precondition: %d rows resident after the commit, want the open hour's 1", n)
	}
	if deleted, retained, err := f.bms.ForgetUser("mary"); err != nil || deleted != 5 || retained != 0 {
		t.Fatalf("ForgetUser = (%d, %d, %v), want (5, 0, nil)", deleted, retained, err)
	}
	ble("aa:00:00:00:00:02", testNow.Add(2*time.Hour+time.Minute))
	commit()
	if files := holding(); len(files) != 0 {
		t.Fatalf("mary's ID or MAC is still at rest after the next commit in %v", files)
	}
}
