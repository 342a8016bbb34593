package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
	"github.com/tippers/tippers/internal/telemetry"
)

// referenceOccupancy is the oracle for RequestOccupancy's miss path:
// the pipeline it ran before the pair pass, judging rows at their
// capture times. It materialises the rows and buckets them by subject
// and, in seq order, by window class; decides each class at the capture
// time of its first row; copies every class's observations through
// enforce.ApplyDecision, concatenates the copies and counts them with
// privacy.KAnonymousCounts. relObs is what the trace reports as
// ObservationsReleased.
func referenceOccupancy(b *BMS, req enforce.Request, minK int) (resp Response, relObs int, err error) {
	if minK < 1 {
		minK = 1
	}
	obs := b.store.Query(b.filterFor(req))
	type class struct {
		subject string
		class   enforce.Class
	}
	var classes []class
	rows := make(map[class][]sensor.Observation)
	for _, o := range obs {
		if o.UserID == "" {
			continue
		}
		c := class{o.UserID, b.engine.Domain(o.UserID).Class(o.Time)}
		if rows[c] == nil {
			classes = append(classes, c)
		}
		rows[c] = append(rows[c], o)
	}
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].subject < classes[j].subject })
	items := make([]enforce.BatchItem, len(classes))
	for i, c := range classes {
		subReq := req
		subReq.SubjectID, subReq.Time = c.subject, rows[c][0].Time
		items[i] = enforce.BatchItem{Req: subReq, Groups: b.subjectGroups(c.subject)}
	}
	k := minK
	var releasedObs []sensor.Observation
	released := make(map[string]bool)
	for i, d := range enforce.DecideBatch(b.engine, items, enforce.BatchOptions{}) {
		c := classes[i]
		released[c.subject] = released[c.subject] || d.Allowed
		b.recordDecision(c.subject, d)
		if !d.Allowed {
			continue
		}
		if d.Effective.MinAggregationK > k {
			k = d.Effective.MinAggregationK
		}
		transformed, err := enforce.ApplyDecision(d, rows[c], b.transf)
		if err != nil {
			return Response{}, 0, err
		}
		releasedObs = append(releasedObs, transformed...)
	}
	resp = Response{SubjectsConsidered: len(released)}
	for _, r := range released {
		if r {
			resp.SubjectsReleased++
		}
	}
	resp.Aggregates = privacy.KAnonymousCounts(releasedObs, k,
		func(o sensor.Observation) string { return o.SpaceID },
		func(o sensor.Observation) string { return o.UserID },
	)
	resp.Decision = occDecision(resp.Aggregates, k)
	return resp, len(releasedObs), nil
}

// decideLog wraps an engine and keeps the multiset of its Decide calls.
type decideLog struct {
	enforce.Engine
	mu    sync.Mutex
	calls map[string]int
}

func (e *decideLog) Decide(req enforce.Request, groups []profile.Group) enforce.Decision {
	e.mu.Lock()
	e.calls[fmt.Sprintf("%+v %v", req, groups)]++
	e.mu.Unlock()
	return e.Engine.Decide(req, groups)
}

const occTestUsers = 14

// occWorld builds one node of a seeded occupancy scenario; the same
// seed builds the same node. Fourteen subjects over four known rooms
// and one space the model has never heard of, a few unattributed
// devices, and per subject one of: no preference, an opt-out, a
// granularity cap (none, building, floor, room, exact), an aggregation
// floor, or noise, a third of them only from 13:30. Half the seeds also carry the emergency policy, so
// the emergency requester's decisions override opt-outs and notify.
func occWorld(t *testing.T, seed int64) (*fixture, *decideLog) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	user := func(i int) string { return fmt.Sprintf("s%02d", i) }
	mac := func(i int) string { return fmt.Sprintf("dd:00:00:00:00:%02x", i) }
	var dlog *decideLog
	f := newFixtureWith(t, func(c *Config) {
		for i := 0; i < occTestUsers; i++ {
			c.Users.MustAdd(profile.User{ID: user(i), Profiles: []profile.Profile{{Group: profile.GroupGradStudent}},
				DeviceMACs: []string{mac(i)}})
		}
		c.Sensors.MustAdd(sensor.MustNew("ap-3", sensor.TypeWiFiAP, "dbh/1/r1"))
		c.Sensors.MustAdd(sensor.MustNew("ap-4", sensor.TypeWiFiAP, "dbh/2/r2"))
		dlog = &decideLog{calls: make(map[string]int), Engine: enforce.NewCompiled(enforce.Config{
			Spaces: c.Spaces, Services: c.Services, DefaultAllow: c.DefaultAllow})}
		c.Engine = dlog
	})
	if rng.Intn(2) == 0 {
		if err := f.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < occTestUsers; i++ {
		var rule policy.Rule
		switch rng.Intn(8) {
		case 0, 1:
			continue
		case 2, 3:
			rule = policy.Rule{Action: policy.ActionDeny}
		case 4, 5:
			caps := []policy.Granularity{policy.GranNone, policy.GranBuilding, policy.GranFloor, policy.GranRoom, policy.GranExact}
			rule = policy.Rule{Action: policy.ActionLimit, MaxGranularity: caps[rng.Intn(len(caps))]}
		case 6:
			rule = policy.Rule{Action: policy.ActionLimit, MinAggregationK: 1 + rng.Intn(4)}
		case 7:
			rule = policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.5, MaxGranularity: policy.GranFloor}
		}
		scope := policy.Scope{ObsKind: sensor.ObsWiFiConnect}
		if rng.Intn(3) == 0 {
			// Its edge falls among the rows: the subject's rows are two
			// window classes.
			scope.Window = policy.DailyWindow{Start: 13*60 + 30, End: 20 * 60}
		}
		err := f.bms.SetPreference(policy.Preference{ID: "occ-" + user(i), UserID: user(i), Name: "occ " + user(i),
			Scope: scope, Rule: rule, Source: "explicit"})
		if err != nil {
			t.Fatal(err)
		}
	}
	aps := []string{"ap-1", "ap-2", "ap-3", "ap-4"}
	for n := 0; n < 120; n++ {
		// Index occTestUsers is a device nobody owns: an unattributed row.
		o := f.wifiObs(mac(rng.Intn(occTestUsers+1)), aps[rng.Intn(len(aps))], -1-rng.Intn(50))
		o.Time = o.Time.Add(time.Duration(rng.Intn(60)) * time.Second)
		if rng.Intn(8) == 0 {
			o.SpaceID = "annex/lab" // not in the spatial model
		}
		if err := f.bms.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	return f, dlog
}

// occRequests draws the requests of a seed: both requesters, every
// requested granularity, scoped and unscoped, with no window, a
// minute-aligned window and an unaligned one.
func occRequests(seed int64) (reqs []enforce.Request, minKs []int) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	grans := []policy.Granularity{0, policy.GranNone, policy.GranBuilding, policy.GranFloor, policy.GranRoom, policy.GranExact}
	scopes := []string{"", "", "dbh", "dbh/2"}
	for i := 0; i < 6; i++ {
		req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, Time: testNow,
			SpaceID: scopes[rng.Intn(len(scopes))], Granularity: grans[rng.Intn(len(grans))]}
		if rng.Intn(3) == 0 {
			req.ServiceID, req.Purpose = "bms-emergency", policy.PurposeEmergencyResponse
		}
		switch i % 3 {
		case 1:
			req.From, req.To = testNow.Add(-time.Duration(10+rng.Intn(40))*time.Minute), testNow
		case 2:
			req.From, req.To = testNow.Add(-time.Duration(10+rng.Intn(40))*time.Minute-17*time.Second), testNow
		}
		reqs = append(reqs, req)
		minKs = append(minKs, 1+rng.Intn(3))
	}
	return reqs, minKs
}

// TestOccupancyStreamMatchesReference: over seeded scenarios the pair
// pass releases, counts, records, notifies and decides exactly as the
// materialising pipeline did.
func TestOccupancyStreamMatchesReference(t *testing.T) {
	var sawBlank, sawNone, sawFloorRaise, sawNotes bool
	for seed := int64(1); seed <= 48; seed++ {
		got, gotLog := occWorld(t, seed)
		want, wantLog := occWorld(t, seed)
		reqs, minKs := occRequests(seed)
		for i, req := range reqs {
			name := fmt.Sprintf("seed %d req %d", seed, i)
			got.bms.ClearOccupancyCache()
			notes := got.bms.met.notificationsSent.Value()
			g, err := got.bms.RequestOccupancy(req, minKs[i])
			if err != nil {
				t.Fatal(err)
			}
			w, wRel, err := referenceOccupancy(want.bms, req, minKs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g.Aggregates, w.Aggregates) {
				t.Fatalf("%s: aggregates %+v, reference %+v", name, g.Aggregates, w.Aggregates)
			}
			if !reflect.DeepEqual(g.Decision, w.Decision) {
				t.Fatalf("%s: decision %+v, reference %+v", name, g.Decision, w.Decision)
			}
			if g.SubjectsConsidered != w.SubjectsConsidered || g.SubjectsReleased != w.SubjectsReleased {
				t.Fatalf("%s: coverage %d/%d, reference %d/%d", name,
					g.SubjectsReleased, g.SubjectsConsidered, w.SubjectsReleased, w.SubjectsConsidered)
			}
			if g.Trace.ObservationsReleased != wRel {
				t.Fatalf("%s: trace counts %d released observations, reference %d", name, g.Trace.ObservationsReleased, wRel)
			}
			if !reflect.DeepEqual(got.bms.inbox, want.bms.inbox) {
				t.Fatalf("%s: inboxes diverge:\n%v\nreference:\n%v", name, got.bms.inbox, want.bms.inbox)
			}
			if !reflect.DeepEqual(gotLog.calls, wantLog.calls) {
				t.Fatalf("%s: Decide calls diverge:\n%v\nreference:\n%v", name, gotLog.calls, wantLog.calls)
			}
			for _, a := range g.Aggregates {
				sawBlank = sawBlank || a.Key == ""
			}
			sawNone = sawNone || g.SubjectsReleased > 0 && wRel == 0
			sawFloorRaise = sawFloorRaise || g.Decision.Effective.MinAggregationK > minKs[i]
			sawNotes = sawNotes || got.bms.met.notificationsSent.Value() > notes
		}
	}
	for what, saw := range map[string]bool{
		"an unknown space released under the blank key":     sawBlank,
		"subjects released at granularity none":             sawNone,
		"a subject's aggregation floor above the requested": sawFloorRaise,
		"an override that notified":                         sawNotes,
	} {
		if !saw {
			t.Errorf("no scenario exercised %s", what)
		}
	}
}

// TestOccupancyMissAllocsFlat: what a cache miss allocates follows
// neither the cells it reads nor the subjects it decides. Forty
// subjects seen every minute for an hour: the sixty-minute window reads
// twelve times the cells of the five-minute one and allocates the same,
// and a repeated miss (the engine's memo warm) takes its []Decision
// from the pooled scratch.
func TestOccupancyMissAllocsFlat(t *testing.T) {
	const subjects = 40
	f := newFixtureWith(t, func(c *Config) {
		for i := 0; i < subjects; i++ {
			c.Users.MustAdd(profile.User{ID: fmt.Sprintf("s%02d", i), Profiles: []profile.Profile{{Group: profile.GroupGradStudent}},
				DeviceMACs: []string{fmt.Sprintf("dd:00:00:00:00:%02x", i)}})
		}
		// Floor 1 gets two dozen rooms, as a real floor has: a set of its
		// spaces is too large for the compiler to keep on the stack.
		for r := 3; r < 24; r++ {
			c.Spaces.MustAdd("dbh/1", spatial.Space{ID: fmt.Sprintf("dbh/1/r%d", r), Kind: spatial.KindRoom, Floor: 1})
		}
	})
	// Policy 2's rule, at a TTL whose cutoff falls among the rows: an
	// unowned device's row is past it, so the scan tests every row.
	p2 := policy.Policy2EmergencyLocation("dbh")
	p2.Retention = isodur.MustParse("PT65M")
	if err := f.bms.RegisterPolicy(p2); err != nil {
		t.Fatal(err)
	}
	if err := f.bms.Ingest(f.wifiObs("ee:00:00:00:00:01", "ap-1", -70)); err != nil {
		t.Fatal(err)
	}
	for min := -60; min < 0; min++ {
		for i := 0; i < subjects; i++ {
			if err := f.bms.Ingest(f.wifiObs(fmt.Sprintf("dd:00:00:00:00:%02x", i), []string{"ap-1", "ap-2"}[(i+min+60)%2], min)); err != nil {
				t.Fatal(err)
			}
		}
	}
	allocs := func(minutes int) float64 {
		req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow,
			From: testNow.Add(-time.Duration(minutes) * time.Minute), To: testNow}
		return testing.AllocsPerRun(20, func() {
			f.bms.ClearOccupancyCache()
			resp, err := f.bms.RequestOccupancy(req, 2)
			if err != nil || resp.SubjectsReleased != subjects || resp.Trace.ObservationsReleased != subjects*minutes || len(resp.Aggregates) != 2 {
				t.Fatalf("%d-minute window: %+v, err %v", minutes, resp, err)
			}
		})
	}
	short, long := allocs(5), allocs(60)
	if short < 10 {
		t.Fatalf("a miss allocated %.0f objects: it did not run", short)
	}
	// Equal without the race detector (20 and 20 objects); with it the
	// pool drops one Put in four and the slack covers the dropped
	// scratch growing back. The materialising pipeline differed by
	// hundreds.
	if long > short+24 {
		t.Fatalf("a miss's allocations follow the window: %.0f objects over 5 minutes, %.0f over 60", short, long)
	}
	if bound := float64(subjects); long > bound {
		t.Fatalf("%.0f objects to decide %d subjects (bound %.0f): something allocates per cell or per subject again", long, subjects, bound)
	}

	// Bytes, because the decisions are one object however many there
	// are. The cheapest of twenty misses is one whose scratch the pool
	// handed back (under the race detector it drops one Put in four).
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow, From: testNow.Add(-5 * time.Minute), To: testNow}
	cheapest := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 20; i++ {
		f.bms.ClearOccupancyCache()
		runtime.ReadMemStats(&before)
		if _, err := f.bms.RequestOccupancy(req, 2); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		cheapest = min(cheapest, after.TotalAlloc-before.TotalAlloc)
	}
	if storage := uint64(subjects) * uint64(unsafe.Sizeof(enforce.Decision{})); cheapest >= storage {
		t.Fatalf("a repeated miss allocated %d bytes, a []Decision for its %d subjects takes %d: the decisions are not pooled", cheapest, subjects, storage)
	}

	// A floor over a window that does not start on a minute, read from
	// the hot window and again once compaction has sealed the hour: the
	// sealed read may pay for its cursor's space mask and its scratch
	// row, and for nothing else — the space predicate resolves through
	// each segment's dictionary, not through a set built per scan.
	floor := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh/1", Time: testNow,
		From: testNow.Add(-30*time.Minute - 30*time.Second), To: testNow}
	// The cheapest of twenty misses, as above: the race detector's pool
	// drops would otherwise swamp a difference of a few objects.
	floorAllocs := func(where string) uint64 {
		cheapest := ^uint64(0)
		for i := 0; i < 20; i++ {
			f.bms.ClearOccupancyCache()
			runtime.ReadMemStats(&before)
			resp, err := f.bms.RequestOccupancy(floor, 2)
			runtime.ReadMemStats(&after)
			if err != nil || resp.SubjectsReleased != subjects || resp.Trace.ObservationsReleased != subjects*30/2 {
				t.Fatalf("floor read %s: %+v, err %v", where, resp, err)
			}
			cheapest = min(cheapest, after.Mallocs-before.Mallocs)
		}
		return cheapest
	}
	hot := floorAllocs("from the hot window")
	if n, err := f.bms.Columnar().CompactOnce(); err != nil || n != subjects*60 {
		t.Fatalf("CompactOnce sealed %d rows (%v), want %d", n, err, subjects*60)
	}
	if sealed := floorAllocs("from the segments"); sealed > hot+2 {
		t.Fatalf("a floor miss allocates %d objects over sealed segments, %d over the hot window: the segment scan allocates per scan again", sealed, hot)
	}
}

// TestConcurrentOccupancyMissesKeepTheirDecisions: two requesters whose
// misses run side by side over the same floor, taking their scratch
// from the same pool, each get the answer they get alone — the
// concierge's excludes the subjects who opted out of it, the emergency
// service's does not — and the race detector sees no shared write.
func TestConcurrentOccupancyMissesKeepTheirDecisions(t *testing.T) {
	const subjects = 24
	mac := func(i int) string { return fmt.Sprintf("dd:00:00:00:01:%02x", i) }
	f := newFixtureWith(t, func(c *Config) {
		for i := 0; i < subjects; i++ {
			c.Users.MustAdd(profile.User{ID: fmt.Sprintf("p%02d", i), Profiles: []profile.Profile{{Group: profile.GroupGradStudent}},
				DeviceMACs: []string{mac(i)}})
		}
	})
	for i := 0; i < subjects; i++ {
		if err := f.bms.Ingest(f.wifiObs(mac(i), []string{"ap-1", "ap-2"}[i%2], -10)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := f.bms.SetPreference(policy.Preference{ID: fmt.Sprintf("no-concierge-%02d", i), UserID: fmt.Sprintf("p%02d", i),
				Scope: policy.Scope{ServiceID: "concierge"}, Rule: policy.Rule{Action: policy.ActionDeny}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	reqs := []enforce.Request{
		{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow},
		{ServiceID: "bms-emergency", Purpose: policy.PurposeEmergencyResponse, Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow},
	}
	alone := make([]Response, len(reqs))
	for i, req := range reqs {
		var err error
		if alone[i], err = f.bms.RequestOccupancy(req, 2); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := alone[0].SubjectsReleased, alone[1].SubjectsReleased; a != subjects-subjects/3 || b != subjects {
		t.Fatalf("released alone: concierge %d, emergency %d; the two requesters should differ", a, b)
	}
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				f.bms.ClearOccupancyCache() // its own key is only ever stored by this goroutine: every request misses
				got, err := f.bms.RequestOccupancy(req, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if got.SubjectsReleased != alone[i].SubjectsReleased || !reflect.DeepEqual(got.Aggregates, alone[i].Aggregates) {
					t.Errorf("%s, concurrent miss %d: released %d %+v, alone %d %+v", req.ServiceID, n,
						got.SubjectsReleased, got.Aggregates, alone[i].SubjectsReleased, alone[i].Aggregates)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestZeroTimeRequestsUseDeploymentClock: a request that leaves Time
// unset is decided at the deployment's clock — the instant its answer
// is cached and traced under — not at the wall clock. Mary denies
// sensing after hours; with the clock at 22:00 her data is withheld
// from both request paths, with it at 10:00 it is not.
func TestZeroTimeRequestsUseDeploymentClock(t *testing.T) {
	for _, tc := range []struct {
		hour     int
		withheld bool
	}{{22, true}, {10, false}} {
		at := time.Date(2017, time.June, 7, tc.hour, 0, 0, 0, time.UTC)
		f := newFixtureWith(t, func(c *Config) { c.Clock = func() time.Time { return at } })
		f.now = at
		occIngest(t, f)
		if err := f.bms.SetPreference(policy.Preference{ID: "mary-evenings", UserID: "mary",
			Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect, Window: policy.AfterHours},
			Rule:  policy.Rule{Action: policy.ActionDeny}}); err != nil {
			t.Fatal(err)
		}
		req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect}
		userReq := req
		userReq.SubjectID = "mary"
		user, err := f.bms.RequestUser(userReq)
		if err != nil {
			t.Fatal(err)
		}
		if user.Decision.Allowed == tc.withheld {
			t.Errorf("clock %02d:00, user request with no Time: allowed = %v", tc.hour, user.Decision.Allowed)
		}
		req.SpaceID = "dbh"
		for _, path := range []string{"evaluated", "cached"} {
			occ, err := f.bms.RequestOccupancy(req, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := 3
			if tc.withheld {
				want = 2
			}
			if occ.SubjectsConsidered != 3 || occ.SubjectsReleased != want {
				t.Errorf("clock %02d:00, occupancy request with no Time (%s): released %d of %d subjects, want %d of 3",
					tc.hour, path, occ.SubjectsReleased, occ.SubjectsConsidered, want)
			}
		}
	}
}

// TestOccupancyNilTransformerEndsSpans: the one error RequestOccupancy
// can return, a node without a transformer, leaves no span open. The
// node opens no span of its own (its stage clock is the one timing
// source), so the trace holds the caller's span, ended, and nothing
// else — the materialising pipeline once failed inside a stage span and
// never ended it.
func TestOccupancyNilTransformerEndsSpans(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{SampleOneIn: 1})
	f := newFixtureWith(t, func(c *Config) { c.Tracer = tracer })
	occIngest(t, f)
	f.bms.transf = nil
	ctx, root := tracer.StartRoot(context.Background(), "test")
	_, err := f.bms.RequestOccupancyCtx(ctx, enforce.Request{ServiceID: "concierge",
		Purpose: policy.PurposeProvidingService, Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow}, 2)
	if err == nil {
		t.Fatal("a node without a transformer answered an occupancy request")
	}
	root.End()
	var names []string
	for _, s := range tracer.Trace(root.Context().TraceID) {
		names = append(names, s.Name)
	}
	if want := []string{"test"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("ended spans %v, want %v: the rejected request opened a span", names, want)
	}
}

// TestOccupancySpacesSuppressed: an evaluated request adds the spaces
// it withheld to tippers_occupancy_spaces_suppressed_total and puts
// the number on its decision trace, which its server span carries; a
// cache hit adds nothing.
func TestOccupancySpacesSuppressed(t *testing.T) {
	f := newFixture(t)
	occIngest(t, f) // mary and bob in dbh/2/r0, carol alone in dbh/1/r0
	req := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow}
	for i, want := range []uint64{1, 1} {
		resp, err := f.bms.RequestOccupancy(req, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.bms.met.occSpacesSuppressed.Value(); got != want {
			t.Fatalf("request %d: counter = %d, want %d", i, got, want)
		}
		if got, want := resp.Trace.SpacesSuppressed, []int{1, 0}[i]; got != want {
			t.Fatalf("request %d: trace has %d spaces suppressed, want %d", i, got, want)
		}
	}
	var sb strings.Builder
	f.bms.Metrics().WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "tippers_occupancy_spaces_suppressed_total 1") {
		t.Error("tippers_occupancy_spaces_suppressed_total is not exported")
	}
}

// TestOccupancyCacheSkipsNarrowedRequests: a subject, a seq cursor and
// a page limit narrow the fetch and are not in the cache key, so a
// request carrying one is neither served a stored answer nor stored
// for the request without it.
func TestOccupancyCacheSkipsNarrowedRequests(t *testing.T) {
	f := newFixture(t)
	occIngest(t, f) // mary and bob in dbh/2/r0, carol alone in dbh/1/r0
	plain := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		Kind: sensor.ObsWiFiConnect, SpaceID: "dbh", Time: testNow}
	subject, cursor, limit := plain, plain, plain
	subject.SubjectID, cursor.AfterSeq, limit.Limit = "mary", 6, 3
	want := []privacy.AggregateCount{{Key: "dbh/1/r0", Count: 1}, {Key: "dbh/2/r0", Count: 2}}
	ask := func(name string, req enforce.Request, want []privacy.AggregateCount) {
		t.Helper()
		resp, err := f.bms.RequestOccupancy(req, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Aggregates, want) {
			t.Fatalf("%s: aggregates %+v, want %+v", name, resp.Aggregates, want)
		}
	}
	narrowed := []privacy.AggregateCount{{Key: "dbh/2/r0", Count: 1}}
	ask("subject before any answer is stored", subject, narrowed)
	ask("plain", plain, want)
	ask("subject", subject, narrowed)
	ask("plain again", plain, want)
	for name, req := range map[string]enforce.Request{"cursor": cursor, "limit": limit} {
		resp, err := f.bms.RequestOccupancy(req, 1)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(resp.Aggregates, want) {
			t.Fatalf("%s: served the unnarrowed answer %+v", name, resp.Aggregates)
		}
	}
}

// TestOccCacheKeyBytes: the allocation-lean key builder writes the
// bytes a fmt-based one writes, and no request instant moves them.
func TestOccCacheKeyBytes(t *testing.T) {
	old := func(req enforce.Request, minK int) string {
		var sb strings.Builder
		sb.WriteString(req.ServiceID)
		sb.WriteByte(0)
		sb.WriteString(string(req.Purpose))
		sb.WriteByte(0)
		sb.WriteString(req.SpaceID)
		sb.WriteByte(0)
		sb.WriteString(string(req.Kind))
		sb.WriteByte(0)
		fmt.Fprintf(&sb, "%d\x00", req.Granularity)
		sb.WriteString(strconv.FormatInt(req.From.UnixNano(), 10))
		sb.WriteByte(0)
		sb.WriteString(strconv.FormatInt(req.To.UnixNano(), 10))
		sb.WriteByte(0)
		sb.WriteString(strconv.Itoa(minK))
		return sb.String()
	}
	base := enforce.Request{ServiceID: "concierge", Purpose: policy.PurposeProvidingService,
		SpaceID: "dbh/2", Kind: sensor.ObsWiFiConnect, SubjectID: "ignored"}
	windowed := base
	windowed.From, windowed.To = testNow.Add(-time.Hour), testNow.Add(17*time.Second)
	for _, req := range []enforce.Request{{}, base, windowed} {
		for _, at := range []time.Time{testNow, testNow.Add(42 * time.Second), time.Unix(-90, 5)} {
			for g := policy.Granularity(-1); g <= policy.GranExact+1; g++ {
				for _, minK := range []int{-3, 0, 1, 12} {
					req.Time, req.Granularity = at, g
					if got, want := occCacheKey(req, minK), old(req, minK); got != want {
						t.Fatalf("occCacheKey(%+v, %d) = %q, want %q", req, minK, got, want)
					}
				}
			}
		}
	}
}
