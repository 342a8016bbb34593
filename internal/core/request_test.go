package core

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// TestRequestUserStreamMatchesQuery: RequestUser streams the subject's
// rows from the store into its response and degrades them there; the
// result must be, row for row, what Query + ApplyDecision releases —
// across random subject, kind, space-subtree, time, AfterSeq and Limit
// requests over sealed and hot rows, under decisions at every
// granularity (none included), with and without noise. Noise is keyed
// per (row, ε), so all three reads ask one node. RequestUserEach is the
// third: the rows it emits, copied as they arrive through its one
// reused row, must be the same, with no Response.Observations beside
// them.
func TestRequestUserStreamMatchesQuery(t *testing.T) {
	f := newFixture(t)
	rng := rand.New(rand.NewSource(11))
	rooms := []string{"dbh/1/r0", "dbh/1/r1", "dbh/1/r2", "dbh/2/r0", "dbh/2/r1", "dbh/2/r2"}
	users := []string{"mary", "bob", "carol"}
	kinds := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}
	ingest := func(n int, maxAge time.Duration) {
		for i := 0; i < n; i++ {
			o := sensor.Observation{
				SensorID: "ap-1", Kind: kinds[rng.Intn(2)], SpaceID: rooms[rng.Intn(len(rooms))],
				UserID: users[rng.Intn(len(users))], Value: rng.Float64() * 100,
				Time: testNow.Add(-time.Duration(rng.Int63n(int64(maxAge)))),
			}
			if _, err := f.bms.Store().Append(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Most of the history sealed into the columnar tier and evicted, the
	// rest hot: requests read across the split.
	ingest(500, 2*time.Hour)
	if n, err := f.bms.Columnar().CompactOnce(); err != nil || n == 0 {
		t.Fatalf("compaction sealed %d rows (%v)", n, err)
	}
	ingest(200, 30*time.Second)

	rules := []policy.Rule{
		{Action: policy.ActionAllow},
		{Action: policy.ActionDeny},
		{Action: policy.ActionLimit, MaxGranularity: policy.GranNone},
		{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding},
		{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor, NoiseEpsilon: 0.5},
		{Action: policy.ActionLimit, MaxGranularity: policy.GranRoom},
		{Action: policy.ActionLimit, MaxGranularity: policy.GranExact, NoiseEpsilon: 2},
		{Action: policy.ActionLimit, NoiseEpsilon: 1},
	}
	released := 0
	for trial := 0; trial < 400; trial++ {
		user := users[rng.Intn(len(users))]
		p := policy.Preference{ID: "pref-" + user, UserID: user, Source: "explicit",
			Scope: policy.Scope{ServiceID: "concierge"}, Rule: rules[trial%len(rules)]}
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
		req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, SubjectID: user, Time: testNow}
		if rng.Intn(2) == 0 {
			req.Kind = kinds[rng.Intn(2)]
		}
		if rng.Intn(3) == 0 {
			req.SpaceID = []string{"dbh", "dbh/1", "dbh/2", "dbh/2/r1"}[rng.Intn(4)]
		}
		if rng.Intn(3) == 0 {
			req.From = testNow.Add(-time.Duration(rng.Intn(120)) * time.Minute)
			req.To = req.From.Add(time.Duration(1+rng.Intn(60)) * time.Minute)
		}
		if rng.Intn(2) == 0 {
			req.AfterSeq = uint64(rng.Intn(700))
		}
		if rng.Intn(2) == 0 {
			req.Limit = 1 + rng.Intn(40)
		}

		got, err := f.bms.RequestUser(req)
		if err != nil {
			t.Fatal(err)
		}
		d := f.bms.decide(req)
		want, err := enforce.ApplyDecision(d, f.bms.Store().Query(f.bms.filterFor(req)), f.bms.transf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Decision.Allowed != d.Allowed || got.Decision.Granularity != d.Granularity || got.Decision.Effective != d.Effective {
			t.Fatalf("trial %d: decisions differ: %+v vs %+v", trial, got.Decision, d)
		}
		if len(got.Observations)+len(want) > 0 && !reflect.DeepEqual(got.Observations, want) {
			t.Fatalf("trial %d %+v under %+v: streamed %d rows, Query + ApplyDecision %d",
				trial, req, p.Rule, len(got.Observations), len(want))
		}
		if got.Trace.ObservationsReleased != len(want) {
			t.Fatalf("trial %d: trace counts %d released rows, want %d", trial, got.Trace.ObservationsReleased, len(want))
		}
		var emitted []sensor.Observation
		eachResp, err := f.bms.RequestUserEach(context.Background(), req, func(o *sensor.Observation) { emitted = append(emitted, *o) })
		if err != nil {
			t.Fatal(err)
		}
		if eachResp.Observations != nil || len(emitted)+len(want) > 0 && !reflect.DeepEqual(emitted, want) {
			t.Fatalf("trial %d: RequestUserEach emitted %d rows (and returned %d), want %d", trial, len(emitted), len(eachResp.Observations), len(want))
		}
		released += len(want)
	}
	if released == 0 {
		t.Fatal("no trial released a row")
	}

	// An apply error ends the scan and the request; nothing is emitted.
	f.bms.transf = nil
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: testNow}
	if err := f.bms.SetPreference(policy.Preference{ID: "pref-mary", UserID: "mary", Source: "explicit",
		Scope: policy.Scope{ServiceID: "concierge"}, Rule: policy.Rule{Action: policy.ActionAllow}}); err != nil {
		t.Fatal(err)
	}
	emitted := 0
	if _, err := f.bms.RequestUserEach(context.Background(), req, func(*sensor.Observation) { emitted++ }); err == nil || emitted != 0 {
		t.Fatalf("with no transformer: err %v after %d emitted rows, want an error and none", err, emitted)
	}
}

// TestCaptureInstantReadsAsUTC: a row stamped 17:30-04:00 is 21:30 UTC,
// outside an 08:00-18:00 rule, and is judged so whether the hot log
// holds it with its ingest offset, a sealed segment holds it in UTC, or
// a reopened node recovered it: RequestUser and a replaying stream
// release it alike at each stage.
func TestCaptureInstantReadsAsUTC(t *testing.T) {
	dir := t.TempDir()
	clock := func(c *Config) { c.Clock = func() time.Time { return testNow.Add(24 * time.Hour) } }
	f := durableFixture(t, dir, clock)
	if err := f.bms.SetPreference(policy.Preference{ID: "mary-day", UserID: "mary", Name: "day",
		Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect, Window: policy.DailyWindow{Start: 8 * 60, End: 18 * 60}},
		Rule:  policy.Rule{Action: policy.ActionDeny}, Source: "explicit"}); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2017, time.June, 7, 17, 30, 0, 0, time.FixedZone("", -4*3600))
	if err := f.bms.Ingest(sensor.Observation{SensorID: "ap-2", Kind: sensor.ObsWiFiConnect, DeviceMAC: "aa:00:00:00:00:01", Time: at}); err != nil {
		t.Fatal(err)
	}
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SubjectID: "mary"}
	released := func(stage string) {
		t.Helper()
		resp, err := f.bms.RequestUser(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Observations) != 1 || !resp.Observations[0].Time.Equal(at) {
			t.Fatalf("%s: RequestUser released %+v, want the 21:30 UTC row", stage, resp.Observations)
		}
		sub, err := f.bms.Streams().Subscribe(stream.Options{Request: req, Replay: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if ev, err := sub.Next(ctx); err != nil || ev.Type != stream.EventObservation || !ev.Observation.Time.Equal(at) {
			t.Fatalf("%s: replay served %+v, %v; want the 21:30 UTC row", stage, ev, err)
		}
	}
	released("hot log")
	if n, err := f.bms.Columnar().CompactOnce(); err != nil || n == 0 {
		t.Fatalf("CompactOnce sealed %d rows, %v", n, err)
	}
	released("sealed")
	f.bms.Close()
	f = durableFixture(t, dir, clock)
	released("reopened")
}

// TestNoisedReleaseIsKeyed: under a noised preference each of the
// subject's rows is released with one value, not the stored one: by
// 1 000 RequestUser calls from four goroutines, by RequestUserEach, by
// SQL over observations and by a replaying subscription, and again
// after the node is closed and reopened, sealed and hot rows alike.
// Averaging repeated asks then learns nothing.
func TestNoisedReleaseIsKeyed(t *testing.T) {
	dir := t.TempDir()
	keyed := func(c *Config) { c.PseudonymKey = []byte("node-key") }
	f := durableFixture(t, dir, keyed)
	if err := f.bms.SetPreference(policy.Preference{ID: "mary-noise", UserID: "mary", Name: "noise",
		Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect},
		Rule:  policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.5}, Source: "explicit"}); err != nil {
		t.Fatal(err)
	}
	stored := make(map[uint64]float64)
	ingest := func(at time.Time, value float64) {
		if err := f.bms.Ingest(sensor.Observation{SensorID: "ap-2", Kind: sensor.ObsWiFiConnect,
			DeviceMAC: "aa:00:00:00:00:01", Time: at, Value: value}); err != nil {
			t.Fatal(err)
		}
		stored[f.bms.Store().LastSeq()] = value
	}
	for i := 0; i < 10; i++ {
		ingest(testNow.Add(-2*time.Hour+time.Duration(i)*time.Minute), float64(i))
	}
	if n, err := f.bms.Columnar().CompactOnce(); err != nil || n != 10 {
		t.Fatalf("CompactOnce sealed %d rows, %v; want 10", n, err)
	}
	for i := 0; i < 10; i++ {
		ingest(testNow.Add(-time.Duration(i)*time.Second), float64(100+i))
	}

	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SubjectID: "mary"}
	bySeq := func(obs []sensor.Observation) map[uint64]float64 {
		m := make(map[uint64]float64, len(obs))
		for _, o := range obs {
			m[o.Seq] = o.Value
		}
		return m
	}
	released := func(stage string) map[uint64]float64 {
		t.Helper()
		resp, err := f.bms.RequestUser(req)
		if err != nil {
			t.Fatal(err)
		}
		want := bySeq(resp.Observations)
		if len(want) != len(stored) {
			t.Fatalf("%s: RequestUser released %d rows, want %d", stage, len(want), len(stored))
		}
		for seq, v := range want {
			if v == stored[seq] {
				t.Fatalf("%s: row %d released unnoised", stage, seq)
			}
		}

		var wg sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 250; i++ {
					resp, err := f.bms.RequestUser(req)
					if err != nil {
						errs <- err
						return
					}
					if got := bySeq(resp.Observations); !maps.Equal(got, want) {
						errs <- fmt.Errorf("repeat %d released %v, first %v", i, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("%s: concurrent RequestUser: %v", stage, err)
		}

		var each []sensor.Observation
		if _, err := f.bms.RequestUserEach(context.Background(), req, func(o *sensor.Observation) { each = append(each, *o) }); err != nil {
			t.Fatal(err)
		}
		if got := bySeq(each); !maps.Equal(got, want) {
			t.Fatalf("%s: RequestUserEach released %v, RequestUser %v", stage, got, want)
		}

		q, err := f.bms.Query(context.Background(), query.Requester{ServiceID: req.ServiceID, Purpose: req.Purpose},
			"SELECT seq, value FROM observations")
		if err != nil {
			t.Fatal(err)
		}
		sql := make(map[uint64]float64)
		for _, row := range q.Result.Rows {
			sql[uint64(row[0].Num())] = row[1].Num()
		}
		if !maps.Equal(sql, want) {
			t.Fatalf("%s: SQL released %v, RequestUser %v", stage, sql, want)
		}

		sub, err := f.bms.Streams().Subscribe(stream.Options{Request: req, Replay: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()
		replay := make(map[uint64]float64)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for len(replay) < len(want) {
			ev, err := sub.Next(ctx)
			if err != nil {
				t.Fatalf("%s: replay after %d rows: %v", stage, len(replay), err)
			}
			if ev.Type == stream.EventObservation {
				replay[ev.Observation.Seq] = ev.Observation.Value
			}
		}
		if !maps.Equal(replay, want) {
			t.Fatalf("%s: replay released %v, RequestUser %v", stage, replay, want)
		}
		return want
	}
	before := released("sealed and hot")
	f.bms.Close()
	f = durableFixture(t, dir, keyed)
	if after := released("reopened"); !maps.Equal(after, before) {
		t.Fatalf("reopened node released %v, before the restart %v", after, before)
	}
}

// TestDurableNodeKeepsItsKey: a durable node configured without a
// PseudonymKey keys pseudonyms and noise with its own <dir>/node.key,
// written on the first open (32 bytes, mode 0600) and read on every
// later one. After Close and a reopen a hash_mac row's pseudonym and a
// noised row's released value are what they were, and neither is what
// the public simulation key gives. A key file that is short refuses
// the open and is left as it is.
func TestDurableNodeKeepsItsKey(t *testing.T) {
	const mac = "aa:00:00:00:00:02"
	dir := t.TempDir()
	public := []byte("tippers-simulation-key")
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SubjectID: "mary"}
	open := func() *fixture {
		f := durableFixture(t, dir)
		if err := f.bms.Sensors().Actuate("ap-2", map[string]string{"hash_mac": "true"}); err != nil {
			t.Fatal(err)
		}
		return f
	}
	// pseudonym ingests one hash_mac reading of mac and returns the
	// device ID the node stored it under.
	pseudonym := func(f *fixture, at time.Time) string {
		if err := f.bms.Ingest(sensor.Observation{SensorID: "ap-2", Kind: sensor.ObsWiFiConnect, DeviceMAC: mac, Time: at}); err != nil {
			t.Fatal(err)
		}
		rows := f.bms.Store().Query(obstore.Filter{AfterSeq: f.bms.Store().LastSeq() - 1})
		if len(rows) != 1 || rows[0].UserID != "" {
			t.Fatalf("the hash_mac reading was stored as %+v", rows)
		}
		return rows[0].DeviceMAC
	}
	released := func(f *fixture) map[uint64]float64 {
		resp, err := f.bms.RequestUser(req)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[uint64]float64, len(resp.Observations))
		for _, o := range resp.Observations {
			out[o.Seq] = o.Value
		}
		return out
	}

	f := open()
	if err := f.bms.SetPreference(policy.Preference{ID: "mary-noise", UserID: "mary", Name: "noise",
		Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect},
		Rule:  policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.5}, Source: "explicit"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := f.bms.Ingest(sensor.Observation{SensorID: "ap-1", Kind: sensor.ObsWiFiConnect,
			DeviceMAC: "aa:00:00:00:00:01", Time: testNow.Add(-time.Duration(i) * time.Minute), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	first := pseudonym(f, testNow)
	if first == privacy.NewPseudonymizer(public).Pseudonym(mac) {
		t.Fatalf("pseudonym %s is the public key's", first)
	}
	before := released(f)
	if len(before) != 5 {
		t.Fatalf("released %d of mary's rows, want 5", len(before))
	}
	publicNoise := privacy.NewTransformer(nil, 0, public)
	for _, o := range f.bms.Store().Query(obstore.Filter{UserID: "mary"}) {
		if v := before[o.Seq]; v == o.Value || v == publicNoise.Noise(o, 0.5) {
			t.Fatalf("row %d released as %v: stored %v, public key's noise %v", o.Seq, v, o.Value, publicNoise.Noise(o, 0.5))
		}
	}
	path := filepath.Join(dir, "node.key")
	fi, err := os.Stat(path)
	if err != nil || fi.Size() != 32 || fi.Mode().Perm() != 0o600 {
		t.Fatalf("node key %s: %v, %v", path, fi, err)
	}

	f.bms.Close()
	f = open()
	if after := released(f); !maps.Equal(after, before) {
		t.Fatalf("reopened node released %v, before the restart %v", after, before)
	}
	if again := pseudonym(f, testNow.Add(time.Second)); again != first {
		t.Fatalf("reopened node pseudonymizes %s as %s, before the restart %s", mac, again, first)
	}
	f.bms.Close()

	key, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, key[:16], 0o600); err != nil {
		t.Fatal(err)
	}
	if f, err := openDurableFixture(t, dir); err == nil {
		f.bms.Close()
		t.Fatal("a node opened over a short key file")
	}
	if short, err := os.ReadFile(path); err != nil || len(short) != 16 {
		t.Fatalf("the short key file was replaced: %d bytes, %v", len(short), err)
	}
}

// TestReadsDecideOncePerWindowClass: a user read and an occupancy miss
// decide at the request's kind and space, so a subject's rows cost one
// decision per window class of their capture times, however many spaces
// they name. Mary's rows lie in two spaces, of two kinds, on both sides
// of a windowed preference's edge; Policy 2 overrides her opt-out, so
// every decision also counts once in her inbox. Each read of her Wi-Fi
// rows moves the decision counter and her inbox by two.
func TestReadsDecideOncePerWindowClass(t *testing.T) {
	f := newFixture(t)
	if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	prefs := append(policy.Preference2NoLocation("mary"), policy.Preference{ID: "no-concierge-afternoons", UserID: "mary",
		Name: "no concierge in the afternoon", Source: "explicit", Rule: policy.Rule{Action: policy.ActionDeny},
		Scope: policy.Scope{ServiceID: "concierge", Window: policy.DailyWindow{Start: 13*60 + 30, End: 20 * 60}}})
	for _, p := range prefs {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	// 13:00 lies before the window's edge and 13:50 inside it.
	for _, at := range []time.Time{testNow.Add(-time.Hour), testNow.Add(-10 * time.Minute)} {
		for _, kind := range []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting} {
			for _, space := range []string{"dbh/1/r0", "dbh/2/r0"} {
				if _, err := f.bms.Store().Append(sensor.Observation{SensorID: "ap-1", Kind: kind, SpaceID: space, UserID: "mary", Time: at}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	f.bms.FetchNotifications("mary") // what setting the preferences entered
	counted := func() (decided uint64, notified int) {
		for _, n := range f.bms.FetchNotifications("mary") {
			notified += n.Count
		}
		return f.bms.met.requestsDecided.Value(), notified
	}
	req := enforce.Request{ServiceID: "bms-emergency", Purpose: policy.PurposeEmergencyResponse, Kind: sensor.ObsWiFiConnect, Time: testNow}
	for _, read := range []struct {
		name string
		run  func() (released int, err error)
	}{
		{"user read", func() (int, error) {
			r := req
			r.SubjectID = "mary"
			resp, err := f.bms.RequestUser(r)
			return len(resp.Observations), err
		}},
		{"occupancy miss", func() (int, error) {
			f.bms.ClearOccupancyCache()
			resp, err := f.bms.RequestOccupancy(req, 1)
			return resp.Trace.ObservationsReleased, err
		}},
	} {
		before, _ := counted()
		released, err := read.run()
		if err != nil {
			t.Fatal(err)
		}
		after, notified := counted()
		if released != 4 {
			t.Fatalf("%s released %d rows, want her 4 Wi-Fi rows", read.name, released)
		}
		if after-before != 2 || notified != 2 {
			t.Errorf("%s: %d decisions and %d inbox counts, want 2 of each: one per window class", read.name, after-before, notified)
		}
	}
}
