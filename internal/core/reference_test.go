package core

// One reference for every read path. A node is driven through a seeded
// interleaving of ingest, preference writes and removals, policy
// registration, ForgetUser, Sweep, CompactOnce and advances of its
// clock past retention TTLs and across window edges, and after every
// step each read path — RequestUserEach, RequestOccupancy (a miss, then
// the cache's hit), SQL over observations in row and grouped form and
// over occupancy, a replaying hub subscription and a live one — must
// release what the paper's semantics release from the rows the
// reference holds: every ingested row minus what was deleted and what
// retention has expired on the node's clock, each decided at its
// capture time by a naive engine fed the same rules in the same order.
// Preferences and override policies carry daily windows, and rows are
// captured on both sides of their edges.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// refWorld is the reference: the rows a node must answer from and the
// rules it must answer by.
type refWorld struct {
	t *testing.T
	f *fixture
	// now is the node's clock, which only the test moves; clock holds
	// it for the node's goroutines to read.
	now     time.Time
	clock   atomic.Int64
	engine  *enforce.Naive
	rows    []sensor.Observation // ascending seq
	seq     uint64
	prefs   map[string]string // preference ID → owner
	polices []policy.BuildingPolicy
	// retention is the kind → TTL table in installation order; the
	// first rule on a kind wins.
	retention []obstore.RetentionRule
	// live holds one live (not replaying) subscription per requester,
	// opened with the node; liveSeq is the seq up to which their events
	// have been checked, and liveDenied each one's denied count then.
	live       []*stream.Subscription
	liveSeq    uint64
	liveDenied []uint64
}

var refUsers = []string{"mary", "bob", "carol", "s00", "s01", "s02", "s03"}

func refMAC(i int) string { return fmt.Sprintf("aa:00:00:00:01:%02x", i) }

// newRefWorld builds the node under test and its reference, sharing one
// clock that only the test moves.
func newRefWorld(t *testing.T) *refWorld {
	t.Helper()
	w := &refWorld{t: t, now: testNow, prefs: make(map[string]string)}
	w.f = newFixtureWith(t, func(c *Config) {
		for i := 3; i < len(refUsers); i++ {
			c.Users.MustAdd(profile.User{ID: refUsers[i], Profiles: []profile.Profile{{Group: profile.GroupGradStudent}},
				DeviceMACs: []string{refMAC(i)}})
		}
		w.clock.Store(w.now.UnixNano())
		c.Clock = func() time.Time { return time.Unix(0, w.clock.Load()).UTC() }
		w.engine = enforce.NewNaive(enforce.Config{Spaces: c.Spaces, Services: c.Services, DefaultAllow: c.DefaultAllow})
	})
	for _, rq := range refRequesters {
		sub, err := w.bms().Streams().Subscribe(stream.Options{Request: enforce.Request{ServiceID: rq.service, Purpose: rq.purpose}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sub.Cancel)
		w.live = append(w.live, sub)
		w.liveDenied = append(w.liveDenied, 0)
	}
	return w
}

// refWindows are the daily windows a rule may carry: none, the paper's
// after-hours, business hours, and a Tuesday/Thursday night that
// crosses midnight.
var refWindows = []policy.DailyWindow{{}, policy.AfterHours, policy.BusinessHours,
	{Start: 22 * 60, End: 2 * 60, Days: policy.Tuesday | policy.Thursday}}

// refEdges are the minutes of the day at which a refWindows window
// opens or closes.
var refEdges = []time.Duration{2 * time.Hour, 8 * time.Hour, 18 * time.Hour, 22 * time.Hour}

// lastEdge is the latest window edge at or before t, and nextEdge the
// first after it.
func lastEdge(t time.Time) time.Time {
	var last time.Time
	for day := t.Truncate(24 * time.Hour).Add(-24 * time.Hour); !day.After(t); day = day.Add(24 * time.Hour) {
		for _, e := range refEdges {
			if at := day.Add(e); !at.After(t) {
				last = at
			}
		}
	}
	return last
}

func nextEdge(t time.Time) time.Time {
	for day := t.Truncate(24 * time.Hour); ; day = day.Add(24 * time.Hour) {
		for _, e := range refEdges {
			if at := day.Add(e); at.After(t) {
				return at
			}
		}
	}
}

// nearEdge draws a capture time a few minutes either side of a window
// edge of today or yesterday, not after now.
func (w *refWorld) nearEdge(rng *rand.Rand) time.Time {
	for {
		at := w.now.Truncate(24 * time.Hour).Add(-24 * time.Duration(rng.Intn(2)) * time.Hour).
			Add(refEdges[rng.Intn(len(refEdges))] + time.Duration(rng.Intn(11)-5)*time.Minute)
		if !at.After(w.now) {
			return at
		}
	}
}

func (w *refWorld) bms() *BMS { return w.f.bms }

// mac is the device of refUsers[i], or a device nobody owns for i < 0.
func (w *refWorld) mac(i int) string {
	if i < 0 {
		return "ff:00:00:00:00:01"
	}
	if u, ok := w.bms().Users().Lookup(refUsers[i]); ok && len(u.DeviceMACs) > 0 {
		return u.DeviceMACs[0]
	}
	return refMAC(i)
}

// ingest stores o through the capture pipeline and records what the
// store must now hold: the sensor's space, the attributed owner, the
// next seq.
func (w *refWorld) ingest(o sensor.Observation) {
	w.t.Helper()
	if err := w.bms().Ingest(o); err != nil {
		w.t.Fatal(err)
	}
	s, _ := w.bms().Sensors().Get(o.SensorID)
	if o.SpaceID == "" {
		o.SpaceID = s.SpaceID
	}
	if u, ok := w.bms().Users().LookupMAC(o.DeviceMAC); ok {
		o.UserID = u.ID
	}
	w.seq++
	o.Seq = w.seq
	w.rows = append(w.rows, o)
}

func (w *refWorld) setPreference(p policy.Preference) {
	w.t.Helper()
	if err := w.bms().SetPreference(p); err != nil {
		w.t.Fatal(err)
	}
	if err := w.engine.AddPreference(p); err != nil {
		w.t.Fatal(err)
	}
	w.prefs[p.ID] = p.UserID
}

func (w *refWorld) removePreference(id string) {
	w.t.Helper()
	if _, err := w.bms().RemovePreference(id); err != nil {
		w.t.Fatal(err)
	}
	w.engine.RemovePreference(id)
	delete(w.prefs, id)
}

func (w *refWorld) registerPolicy(p policy.BuildingPolicy) {
	w.t.Helper()
	if err := w.bms().RegisterPolicy(p); err != nil {
		w.t.Fatal(err)
	}
	if err := w.engine.AddPolicy(p); err != nil {
		w.t.Fatal(err)
	}
	w.polices = append(w.polices, p)
	if p.Kind == policy.KindCollection && !p.Retention.IsZero() {
		w.retention = append(w.retention, obstore.RetentionRule{Kind: p.Scope.ObsKind, TTL: p.Retention})
	}
}

// forget erases a subject but for the rows an override collection
// policy covers, and uninstalls their preferences.
func (w *refWorld) forget(user string) {
	w.t.Helper()
	if _, _, err := w.bms().ForgetUser(user); err != nil {
		w.t.Fatal(err)
	}
	w.rows = slices.DeleteFunc(w.rows, func(o sensor.Observation) bool {
		if o.UserID != user {
			return false
		}
		ctx := policy.Context{SubjectID: user, SpaceID: o.SpaceID, SensorType: sensor.TypeForKind(o.Kind), ObsKind: o.Kind, Time: o.Time}
		for _, p := range w.polices {
			sc := p.Scope
			sc.Purposes = nil
			if p.Override && p.Kind == policy.KindCollection && sc.Matches(ctx, w.bms().Spaces()) {
				return false
			}
		}
		return true
	})
	for id, owner := range w.prefs {
		if owner == user {
			w.engine.RemovePreference(id)
			delete(w.prefs, id)
		}
	}
}

// ttl is the TTL retention applies to a kind: the first rule installed
// on it.
func (w *refWorld) ttl(kind sensor.ObservationKind) (isodur.Duration, bool) {
	for _, r := range w.retention {
		if r.Kind == kind {
			return r.TTL, true
		}
	}
	return isodur.Duration{}, false
}

// sweep removes the rows whose retention has run out at now.
func (w *refWorld) sweep() {
	w.bms().Store().Sweep(w.now)
	w.rows = slices.DeleteFunc(w.rows, func(o sensor.Observation) bool {
		ttl, ok := w.ttl(o.Kind)
		return ok && !ttl.AddTo(o.Time).After(w.now)
	})
}

// expired reports whether retention hides o: its time is at or before
// its kind's TTL subtracted from the end of the clock's minute.
func (w *refWorld) expired(o *sensor.Observation) bool {
	ttl, ok := w.ttl(o.Kind)
	if !ok {
		return false
	}
	ttl.Negative = true
	return !o.Time.After(ttl.AddTo(w.now.Truncate(time.Minute).Add(time.Minute)))
}

// visible returns the unexpired reference rows f matches, ascending
// seq.
func (w *refWorld) visible(f obstore.Filter) []sensor.Observation {
	var out []sensor.Observation
	for i := range w.rows {
		o := &w.rows[i]
		if o.Seq <= f.AfterSeq || w.expired(o) ||
			!f.From.IsZero() && o.Time.Before(f.From) || !f.To.IsZero() && !o.Time.Before(f.To) ||
			f.UserID != "" && o.UserID != f.UserID || f.Kind != "" && o.Kind != f.Kind ||
			len(f.SpaceIDs) > 0 && !slices.Contains(f.SpaceIDs, o.SpaceID) {
			continue
		}
		out = append(out, *o)
	}
	return out
}

func (w *refWorld) decide(req enforce.Request) enforce.Decision {
	var groups []profile.Group
	if u, ok := w.bms().Users().Lookup(req.SubjectID); ok {
		groups = u.Groups()
	}
	return w.engine.Decide(req, groups)
}

// release is the data path the paper's semantics give one row under d:
// the granularity clamp, then the node's keyed noise; false when
// nothing may be released.
func (w *refWorld) release(d enforce.Decision, o sensor.Observation) (sensor.Observation, bool) {
	if !d.Allowed {
		return sensor.Observation{}, false
	}
	g := d.Granularity
	if !g.Valid() {
		g = policy.GranExact
	}
	rel, ok := privacy.CoarsenLocation(o, g, w.bms().Spaces())
	if eps := d.Effective.NoiseEpsilon; ok && eps > 0 {
		rel.Value = w.bms().transf.Noise(o, eps)
	}
	return rel, ok
}

// rowKey is a released row as the comparisons see it.
func rowKey(o sensor.Observation) string {
	return fmt.Sprintf("%d|%s|%s|%s|%s|%s|%d|%g", o.Seq, o.SensorID, o.Kind, o.SpaceID, o.DeviceMAC, o.UserID, o.Time.UnixNano(), o.Value)
}

// refRequesters are the services every path is asked for.
var refRequesters = []struct {
	service string
	purpose policy.Purpose
}{
	{"concierge", policy.PurposeProvidingService},
	{"bms-emergency", policy.PurposeEmergencyResponse},
}

// check asks every read path and compares it with the reference.
func (w *refWorld) check(step string) {
	w.t.Helper()
	w.checkUser(step)
	w.checkOccupancy(step)
	w.checkSQL(step)
	w.checkReplay(step)
	w.checkLive(step)
}

func (w *refWorld) checkUser(step string) {
	w.t.Helper()
	// A request at the node's clock, and one stamped either side of the
	// last window edge: only the response's decision reads the instant.
	edge := lastEdge(w.now)
	for _, at := range []time.Time{{}, edge.Add(-time.Minute), edge.Add(time.Minute)} {
		for _, rq := range refRequesters {
			for _, subject := range refUsers {
				for _, kind := range []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting} {
					req := enforce.Request{ServiceID: rq.service, Purpose: rq.purpose, SubjectID: subject, Kind: kind, Time: at}
					var got []sensor.Observation
					resp, err := w.bms().RequestUserEach(context.Background(), req, func(o *sensor.Observation) {
						got = append(got, *o)
					})
					if err != nil {
						w.t.Fatal(err)
					}
					if at.IsZero() {
						req.Time = w.now
					}
					d := w.decide(req)
					var want []string
					for _, o := range w.visible(w.bms().filterFor(req)) {
						r := req
						r.Time = o.Time
						od := w.decide(r)
						if od.Effective.MinAggregationK > 1 {
							continue
						}
						if rel, ok := w.release(od, o); ok {
							want = append(want, rowKey(rel))
						}
					}
					var gotKeys []string
					for _, g := range got {
						gotKeys = append(gotKeys, rowKey(g))
					}
					if resp.Decision.Allowed != d.Allowed || !slices.Equal(gotKeys, want) {
						w.t.Fatalf("%s: RequestUserEach %s/%s of %s at %v (allowed %v, reference %v):\n got %q\nwant %q",
							step, rq.service, kind, subject, req.Time, resp.Decision.Allowed, d.Allowed, gotKeys, want)
					}
				}
			}
		}
	}
}

// refOccupancy is what an occupancy request releases: each attributed
// row decided at its capture time, the released rows' coarsened spaces
// counted by distinct subject, and spaces short of the k floor
// withheld.
func (w *refWorld) refOccupancy(req enforce.Request, minK int) []privacy.AggregateCount {
	bySubject := make(map[string][]sensor.Observation)
	for _, o := range w.visible(w.bms().filterFor(req)) {
		if o.UserID != "" {
			bySubject[o.UserID] = append(bySubject[o.UserID], o)
		}
	}
	k := minK
	counts := make(map[string]int)
	for subject, rows := range bySubject {
		seen := make(map[string]bool)
		for _, o := range rows {
			sub := req
			sub.SubjectID, sub.Time = subject, o.Time
			d := w.decide(sub)
			if !d.Allowed {
				continue
			}
			k = max(k, d.Effective.MinAggregationK)
			rel, ok := w.release(d, o)
			if !ok {
				continue
			}
			if !seen[rel.SpaceID] {
				seen[rel.SpaceID] = true
				counts[rel.SpaceID]++
			}
		}
	}
	return privacy.SuppressBelowK(counts, k)
}

func (w *refWorld) checkOccupancy(step string) {
	w.t.Helper()
	for _, rq := range refRequesters {
		for i, space := range []string{"", "dbh/2", ""} {
			// A fixed request time: the cache key's minute stays put while
			// the node's clock moves.
			req := enforce.Request{ServiceID: rq.service, Purpose: rq.purpose, Kind: sensor.ObsWiFiConnect,
				SpaceID: space, Time: testNow}
			if i == 2 {
				req.Kind = sensor.ObsBLESighting
			}
			want := w.refOccupancy(req, 2)
			for _, ask := range []string{"miss", "hit"} {
				resp, err := w.bms().RequestOccupancy(req, 2)
				if err != nil {
					w.t.Fatal(err)
				}
				if !slices.Equal(resp.Aggregates, want) {
					w.t.Fatalf("%s: RequestOccupancy %s %q (%s): %v, reference %v", step, rq.service, space, ask, resp.Aggregates, want)
				}
			}
			// A subject narrows the fetch: never the building's cached answer.
			for _, subject := range refUsers[:3] {
				sub := req
				sub.SubjectID = subject
				resp, err := w.bms().RequestOccupancy(sub, 1)
				if err != nil {
					w.t.Fatal(err)
				}
				if want := w.refOccupancy(sub, 1); !slices.Equal(resp.Aggregates, want) {
					w.t.Fatalf("%s: RequestOccupancy %s %q of %s: %v, reference %v", step, rq.service, space, subject, resp.Aggregates, want)
				}
			}
		}
	}
}

// sqlRow is the reference's per-row SQL decision: the one the executor
// makes from the row's own subject, kind, space and capture time.
func (w *refWorld) sqlRow(rq query.Requester, o sensor.Observation) (enforce.Decision, sensor.Observation, bool) {
	d := w.decide(enforce.Request{ServiceID: rq.ServiceID, Purpose: rq.Purpose, Kind: o.Kind,
		SubjectID: o.UserID, SpaceID: o.SpaceID, Time: o.Time})
	rel, ok := w.release(d, o)
	return d, rel, ok
}

func (w *refWorld) checkSQL(step string) {
	w.t.Helper()
	for _, r := range refRequesters {
		rq := query.Requester{ServiceID: r.service, Purpose: r.purpose}
		resp, err := w.bms().Query(context.Background(), rq,
			"SELECT seq, sensor_id, kind, space_id, device_mac, user_id, time, value FROM observations")
		if err != nil {
			w.t.Fatal(err)
		}
		var got, want []string
		for _, o := range w.visible(obstore.Filter{}) {
			d, rel, ok := w.sqlRow(rq, o)
			if !ok || d.Effective.MinAggregationK > 1 && o.UserID != "" {
				continue
			}
			want = append(want, rowKey(rel))
		}
		for _, row := range resp.Result.Rows {
			o := sensor.Observation{Seq: uint64(row[0].Num), SensorID: row[1].Str, Kind: sensor.ObservationKind(row[2].Str),
				SpaceID: row[3].Str, DeviceMAC: row[4].Str, UserID: row[5].Str, Time: row[6].Time, Value: row[7].Num}
			got = append(got, rowKey(o))
		}
		if !slices.Equal(got, want) {
			w.t.Fatalf("%s: SQL rows for %s:\n got %q\nwant %q", step, r.service, got, want)
		}

		resp, err = w.bms().Query(context.Background(), rq,
			"SELECT space_id, COUNT(*) AS n FROM observations GROUP BY space_id")
		if err != nil {
			w.t.Fatal(err)
		}
		got = got[:0]
		for _, row := range resp.Result.Rows {
			got = append(got, fmt.Sprintf("%s=%g", row[0].Str, row[1].Num))
		}
		sort.Strings(got)
		type group struct {
			n        int
			subjects map[string]bool
		}
		groups := make(map[string]*group)
		k := 1
		for _, o := range w.visible(obstore.Filter{}) {
			d, rel, ok := w.sqlRow(rq, o)
			if !ok {
				continue
			}
			if o.UserID != "" {
				k = max(k, d.Effective.MinAggregationK)
			}
			g := groups[rel.SpaceID]
			if g == nil {
				g = &group{subjects: make(map[string]bool)}
				groups[rel.SpaceID] = g
			}
			g.n++
			if o.UserID != "" {
				g.subjects[o.UserID] = true
			}
		}
		want = want[:0]
		for space, g := range groups {
			if k <= 1 || len(g.subjects) == 0 || len(g.subjects) >= k {
				want = append(want, fmt.Sprintf("%s=%d", space, g.n))
			}
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			w.t.Fatalf("%s: grouped SQL for %s: %q, reference %q", step, r.service, got, want)
		}

		// The occupancy table: released rows' spaces by distinct
		// subject, under the requester's floor raised by every
		// contributing subject's.
		rq.MinK = 2
		resp, err = w.bms().Query(context.Background(), rq, "SELECT space_id, count FROM occupancy")
		if err != nil {
			w.t.Fatal(err)
		}
		got = got[:0]
		for _, row := range resp.Result.Rows {
			got = append(got, fmt.Sprintf("%s=%g", row[0].Str, row[1].Num))
		}
		sort.Strings(got)
		k = rq.MinK
		subjects := make(map[string]map[string]bool)
		for _, o := range w.visible(obstore.Filter{}) {
			d, rel, ok := w.sqlRow(rq, o)
			if !ok || o.UserID == "" {
				continue
			}
			k = max(k, d.Effective.MinAggregationK)
			if subjects[rel.SpaceID] == nil {
				subjects[rel.SpaceID] = make(map[string]bool)
			}
			subjects[rel.SpaceID][o.UserID] = true
		}
		want = want[:0]
		for space, set := range subjects {
			if len(set) >= k {
				want = append(want, fmt.Sprintf("%s=%d", space, len(set)))
			}
		}
		sort.Strings(want)
		if !slices.Equal(got, want) {
			w.t.Fatalf("%s: SQL occupancy for %s: %q, reference %q", step, r.service, got, want)
		}
	}
}

// checkReplay subscribes with replay from the start of history and
// reads until the subscription has served every row the reference
// releases, each read with a generous deadline: Next gives up on an
// expired context before it serves anything, so a short one would let a
// late goroutine cut the replay short. One short read must then find
// nothing more.
func (w *refWorld) checkReplay(step string) {
	w.t.Helper()
	next := func(sub *stream.Subscription, d time.Duration) (stream.Event, error) {
		ctx, cancel := context.WithTimeout(context.Background(), d)
		defer cancel()
		return sub.Next(ctx)
	}
	for _, rq := range refRequesters {
		req := enforce.Request{ServiceID: rq.service, Purpose: rq.purpose, Kind: sensor.ObsWiFiConnect}
		sub, err := w.bms().Streams().Subscribe(stream.Options{Request: req, Replay: true, ReplayChunk: 7})
		if err != nil {
			w.t.Fatal(err)
		}
		var (
			seqs []uint64
			want []string
		)
		for _, o := range w.visible(w.bms().filterFor(req)) {
			r := req
			r.SubjectID, r.Time, r.SpaceID = o.UserID, o.Time, o.SpaceID
			d := w.decide(r)
			rel, ok := w.release(d, o)
			if !ok {
				continue
			}
			want = append(want, rowKey(rel))
			seqs = append(seqs, o.Seq)
		}
		var got []sensor.Observation
		for len(got) < len(want) {
			ev, err := next(sub, 10*time.Second)
			if err != nil {
				break
			}
			if ev.Type == stream.EventObservation {
				got = append(got, *ev.Observation)
			}
		}
		if ev, err := next(sub, 2*time.Millisecond); err == nil && ev.Type == stream.EventObservation {
			got = append(got, *ev.Observation)
		}
		sub.Cancel()
		bySeq := make(map[uint64]sensor.Observation, len(got))
		for _, g := range got {
			bySeq[g.Seq] = g
		}
		var gotKeys []string
		for _, seq := range seqs {
			if g, ok := bySeq[seq]; ok {
				gotKeys = append(gotKeys, rowKey(g))
			}
		}
		if len(gotKeys) != len(got) || !slices.Equal(gotKeys, want) {
			var all []string
			for _, g := range got {
				all = append(all, rowKey(g))
			}
			w.t.Fatalf("%s: replay for %s:\n got %q\nwant %q", step, rq.service, all, want)
		}
	}
}

// checkLive reads each live subscription's events for the rows
// ingested since the last check. The hub counts every in-scope row it
// offers as released or denied, so the read goes on until the two
// account for every such row the store still shows; a row denied late,
// under rules a later step wrote, cannot slip past the check.
func (w *refWorld) checkLive(step string) {
	w.t.Helper()
	fresh := w.visible(obstore.Filter{AfterSeq: w.liveSeq})
	for i, rq := range refRequesters {
		sub, denied := w.live[i], w.liveDenied[i]
		var want, got []string
		for _, o := range fresh {
			d := w.decide(enforce.Request{ServiceID: rq.service, Purpose: rq.purpose, Kind: o.Kind,
				SubjectID: o.UserID, SpaceID: o.SpaceID, Time: o.Time})
			if rel, ok := w.release(d, o); ok {
				want = append(want, rowKey(rel))
			}
		}
		offered := func() int { return len(got) + int(sub.Stats().Denied-denied) }
		for deadline := time.Now().Add(10 * time.Second); offered() < len(fresh) && time.Now().Before(deadline); {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			ev, err := sub.Next(ctx)
			cancel()
			if err == nil && ev.Type == stream.EventObservation {
				got = append(got, rowKey(*ev.Observation))
			}
		}
		if offered() != len(fresh) || !slices.Equal(got, want) {
			w.t.Fatalf("%s: live stream for %s (%d of %d rows offered):\n got %q\nwant %q",
				step, rq.service, offered(), len(fresh), got, want)
		}
		w.liveDenied[i] = sub.Stats().Denied
	}
	w.liveSeq = w.seq
}

// refPolicies are the building policies a run may register, each once:
// Policy 2, two collection policies with short retention (the first
// rule installed on a kind wins) and two windowed overrides of Policy
// 2's flow, which decide it on their own until Policy 2 is registered.
func refPolicies() []policy.BuildingPolicy {
	collect := func(id string, kind sensor.ObservationKind, ttl string) policy.BuildingPolicy {
		return policy.BuildingPolicy{ID: id, Name: id, Owner: "building-admin", Kind: policy.KindCollection,
			Scope:     policy.Scope{ObsKind: kind, Purposes: []policy.Purpose{policy.PurposeLogging}},
			Retention: isodur.MustParse(ttl)}
	}
	override := func(id string, w policy.DailyWindow) policy.BuildingPolicy {
		return policy.BuildingPolicy{ID: id, Name: id, Owner: "building-admin", Kind: policy.KindDisclosure, Override: true,
			AudienceGroups: []profile.Group{profile.GroupStaff},
			Scope:          policy.Scope{ObsKind: sensor.ObsWiFiConnect, Purposes: []policy.Purpose{policy.PurposeEmergencyResponse}, Window: w}}
	}
	return []policy.BuildingPolicy{
		policy.Policy2EmergencyLocation("dbh"),
		collect("retain-ble", sensor.ObsBLESighting, "PT2H"),
		collect("retain-wifi", sensor.ObsWiFiConnect, "PT3H"),
		override("override-wifi-business", policy.BusinessHours),
		override("override-wifi-night", refWindows[3]),
	}
}

// refRule draws a preference rule: an opt-out, a granularity cap, an
// aggregation floor or noise.
func refRule(rng *rand.Rand) policy.Rule {
	switch rng.Intn(6) {
	case 0, 1:
		return policy.Rule{Action: policy.ActionDeny}
	case 2, 3:
		caps := []policy.Granularity{policy.GranNone, policy.GranBuilding, policy.GranFloor, policy.GranRoom}
		return policy.Rule{Action: policy.ActionLimit, MaxGranularity: caps[rng.Intn(len(caps))]}
	case 4:
		return policy.Rule{Action: policy.ActionLimit, MinAggregationK: 2 + rng.Intn(2)}
	default:
		return policy.Rule{Action: policy.ActionLimit, NoiseEpsilon: 0.5}
	}
}

// step applies one random mutation to the node and the reference and
// names it.
func (w *refWorld) step(rng *rand.Rand, pending *[]policy.BuildingPolicy) string {
	switch op := rng.Intn(14); {
	case op < 4:
		n := 1 + rng.Intn(10)
		live := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			o := sensor.Observation{Kind: sensor.ObsWiFiConnect, SensorID: []string{"ap-1", "ap-2"}[rng.Intn(2)],
				DeviceMAC: w.mac(rng.Intn(len(refUsers)+1) - 1), Value: float64(rng.Intn(100))}
			if rng.Intn(2) == 0 {
				o.Kind, o.SensorID = sensor.ObsBLESighting, "ble-1"
			}
			age := time.Duration(rng.Intn(3600)) * time.Second
			if !live {
				age += time.Duration(1+rng.Intn(5)) * time.Hour
			}
			o.Time = w.now.Add(-age)
			if rng.Intn(3) == 0 {
				o.Time = w.nearEdge(rng)
			}
			w.ingest(o)
		}
		return fmt.Sprintf("ingest %d (live %v)", n, live)
	case op < 6:
		u := refUsers[rng.Intn(len(refUsers))]
		kind := []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting}[rng.Intn(2)]
		p := policy.Preference{ID: fmt.Sprintf("ref-%s-%d", u, rng.Intn(2)), UserID: u, Name: "ref",
			Scope: policy.Scope{ObsKind: kind, Window: refWindows[rng.Intn(len(refWindows))]}, Rule: refRule(rng), Source: "explicit"}
		w.setPreference(p)
		return "set " + p.ID
	case op < 7:
		if len(w.prefs) == 0 {
			return "remove nothing"
		}
		ids := make([]string, 0, len(w.prefs))
		for id := range w.prefs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		id := ids[rng.Intn(len(ids))]
		w.removePreference(id)
		return "remove " + id
	case op < 8:
		if len(*pending) == 0 {
			return "register nothing"
		}
		i := rng.Intn(len(*pending))
		p := (*pending)[i]
		*pending = slices.Delete(*pending, i, i+1)
		w.registerPolicy(p)
		return "register " + p.ID
	case op < 9:
		u := refUsers[rng.Intn(len(refUsers))]
		w.forget(u)
		return "forget " + u
	case op < 10:
		w.sweep()
		return "sweep"
	case op < 12:
		// No sweep follows: reads alone must stop releasing what expired.
		d := time.Duration(1+rng.Intn(90)) * time.Minute
		if rng.Intn(2) == 0 {
			// To a minute either side of the next window edge.
			d = nextEdge(w.now).Add(time.Duration(rng.Intn(2)*2-1) * time.Minute).Sub(w.now)
			if d <= 0 {
				d += 2 * time.Minute
			}
		}
		w.now = w.now.Add(d)
		w.clock.Store(w.now.UnixNano())
		return fmt.Sprintf("advance the clock %v", d)
	default:
		if _, err := w.bms().Columnar().CompactOnce(); err != nil {
			w.t.Fatal(err)
		}
		return "compact"
	}
}

// TestReadPathsMatchReference: after every step of a seeded
// interleaving, every read path releases exactly what the reference
// does.
func TestReadPathsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := newRefWorld(t)
			pending := refPolicies()
			for i := 0; i < 50; i++ {
				what := w.step(rng, &pending)
				w.check(fmt.Sprintf("seed %d step %d (%s)", seed, i, what))
			}
		})
	}
}
