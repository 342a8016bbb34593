package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
)

// TestRequestUserStreamMatchesQuery: RequestUser streams the subject's
// rows from the store into its response and degrades them there; the
// result must be, row for row, what Query + ApplyDecision releases —
// across random subject, kind, space-subtree, time, AfterSeq and Limit
// requests over sealed and hot rows, under decisions at every
// granularity (none included), with and without noise. Noise is drawn
// per released row from the transformer's seeded stream, so the
// reference runs on a twin BMS built with the same noise seed and fed
// the same rows. A third twin asks RequestUserEach: the rows it emits,
// copied as they arrive through its one reused row, must be the same,
// with no Response.Observations beside them.
func TestRequestUserStreamMatchesQuery(t *testing.T) {
	seeded := func(c *Config) { c.NoiseSeed = 7 }
	streamed, ref, each := newFixtureWith(t, seeded), newFixtureWith(t, seeded), newFixtureWith(t, seeded)
	twins := []*fixture{streamed, ref, each}
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
			for _, f := range twins {
				if _, err := f.bms.Store().Append(o); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Most of the history sealed into the columnar tier and evicted, the
	// rest hot: requests read across the split.
	ingest(500, 2*time.Hour)
	for _, f := range twins {
		if n, err := f.bms.Columnar().CompactOnce(); err != nil || n == 0 {
			t.Fatalf("compaction sealed %d rows (%v)", n, err)
		}
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
		for _, f := range twins {
			if err := f.bms.SetPreference(p); err != nil {
				t.Fatal(err)
			}
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

		got, err := streamed.bms.RequestUser(req)
		if err != nil {
			t.Fatal(err)
		}
		d := ref.bms.decide(req)
		want, err := enforce.ApplyDecision(d, ref.bms.Store().Query(ref.bms.filterFor(req)), ref.bms.transf)
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
		eachResp, err := each.bms.RequestUserEach(context.Background(), req, func(o *sensor.Observation) { emitted = append(emitted, *o) })
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
	each.bms.transf = nil
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: testNow}
	if err := each.bms.SetPreference(policy.Preference{ID: "pref-mary", UserID: "mary", Source: "explicit",
		Scope: policy.Scope{ServiceID: "concierge"}, Rule: policy.Rule{Action: policy.ActionAllow}}); err != nil {
		t.Fatal(err)
	}
	emitted := 0
	if _, err := each.bms.RequestUserEach(context.Background(), req, func(*sensor.Observation) { emitted++ }); err == nil || emitted != 0 {
		t.Fatalf("with no transformer: err %v after %d emitted rows, want an error and none", err, emitted)
	}
}
