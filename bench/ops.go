package main

// Op lists. Every workload is a fixed list of complete HTTP requests
// (method, URL, pre-marshalled body) plus the driver-triggered
// maintenance calls, generated from the seed alone — the node is never
// consulted, so the same seed always produces the same bytes (see
// opListHash) and the node receives nothing but generated inputs.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/sim"
)

type opKind uint8

const (
	opUserRead opKind = iota
	opOccupancy
	opQuery
	opNotifications
	opIngest
	opPrefPut
	opPrefDelete
	// Maintenance the daemon would run on timers; here the driver calls
	// it at fixed op indices so every run does it at the same point.
	opCompact
	opSweep
	opCheckpoint
	numOpKinds
)

var opKindNames = [numOpKinds]string{
	"user", "occupancy", "query", "notifications", "ingest",
	"pref_put", "pref_delete", "compact", "sweep", "checkpoint",
}

func (k opKind) String() string    { return opKindNames[k] }
func (k opKind) maintenance() bool { return k >= opCompact }
func (k opKind) write() bool       { return k == opIngest || k == opPrefPut || k == opPrefDelete }

// check names the verification the driver runs on an op's response.
type check uint8

const (
	checkNone check = iota
	// checkDenied: the read follows an acknowledged deny PUT for its
	// subject and service, so it must release zero rows.
	checkDenied
	// checkReadYourWrites: the read must release exactly op.expect rows
	// (the subject's acknowledged observations in the window) whenever
	// the oracle allows the flow, and none otherwise.
	checkReadYourWrites
)

// op is one step of a workload. The node sees method, url, body and
// the fake clock set to at; the remaining fields are the driver's
// notes for verification and the traced replay.
type op struct {
	kind   opKind
	method string
	url    *url.URL
	body   []byte
	at     time.Time

	check   check
	req     httpapi.RequestDTO      // user and occupancy reads
	k       int                     // occupancy k floor
	query   httpapi.QueryRequestDTO // SQL reads
	rowKind sensor.ObservationKind  // SQL reads that release rows: their kind
	twin    []byte                  // rollup-eligible SQL: the same statement forced onto the row scan, whose answer must be equal
	expect  int                     // checkReadYourWrites
	obs     int                     // ingest: observations in the batch
	pref    policy.Preference       // PUT
	prefID  string                  // DELETE
}

var (
	urlUser        = mustURL("/v1/requests/user")
	urlOccupancyK2 = mustURL("/v1/requests/occupancy?k=2")
	urlQuery       = mustURL("/v1/query")
	urlIngest      = mustURL("/v1/observations")
	urlPreferences = mustURL("/v1/preferences")
)

func mustURL(s string) *url.URL {
	u, err := url.Parse(s)
	if err != nil {
		panic(err)
	}
	return u
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// opListHash fingerprints exactly what the node will receive, in
// order: the op kind, the clock, and the request line and body.
func opListHash(ops []op) string {
	h := sha256.New()
	for i := range ops {
		hashOp(h, &ops[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashOp(h hash.Hash, o *op) {
	fmt.Fprintf(h, "%d|%d|%s|", o.kind, o.at.UnixNano(), o.method)
	if o.url != nil {
		h.Write([]byte(o.url.String()))
	}
	h.Write([]byte{0})
	h.Write(o.body)
	h.Write([]byte{0})
}

// datasetSeed fixes the dataset: the population, the preloaded days,
// the installed preferences and the restart probe set are the same in
// every run, and -seed drives only the request stream (which ops in
// which order, about whom, and the readings ingested live). Results of
// different seeds are then samples of one workload: a seed that moved
// the population would make the hottest subject a visitor in one run
// and a professor in the next, and response sizes with it (measured:
// 1198 vs 1499 response bytes per op between two seeds).
const datasetSeed = 1

// world is the simulated building and population both the node and
// the op generator derive (NewDeployment builds the identical pair
// from the same spec, population and datasetSeed).
type world struct {
	seed     int64 // of the request stream
	building *sim.Building
	dir      *profile.Directory
	users    []*profile.User
	byMAC    map[string]string
	floors   []string
	beacons  []string
	// today is midnight of the last preloaded day; request clocks run
	// through its working hours.
	today time.Time
}

// epoch is a fixed Monday: rule windows and weekdays then do not
// depend on when the benchmark runs.
var epoch = time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)

func newWorld(seed int64, population int) (*world, error) {
	b, err := sim.DBH().Build()
	if err != nil {
		return nil, err
	}
	w := &world{
		seed:     seed,
		building: b,
		dir:      sim.GeneratePopulation(b, population, sim.CampusMix(), datasetSeed),
		byMAC:    make(map[string]string),
		today:    epoch,
	}
	w.users = w.dir.All()
	for _, u := range w.users {
		for _, mac := range u.DeviceMACs {
			w.byMAC[mac] = u.ID
		}
	}
	for f := range b.RoomIDs {
		w.floors = append(w.floors, fmt.Sprintf("%s/%d", b.Spec.ID, f+1))
	}
	for _, s := range b.Sensors.ByType(sensor.TypeBLEBeacon) {
		w.beacons = append(w.beacons, s.ID)
	}
	return w, nil
}

// serviceIDs are the services NewDeployment registers.
var serviceIDs = []string{"bms-emergency", "concierge", "food-delivery", "smart-meeting"}

// installs is the rule set setup installs through PUT /v1/preferences,
// part of the fixed dataset, as ops stamped with the midnight that ends
// the preload.
func (w *world) installs(perUser int) []op {
	prefs := sim.GeneratePreferences(w.building, w.dir, serviceIDs,
		sim.PreferenceWorkload{PerUser: perUser, DenyFraction: 0.2, LimitFraction: 0.3, Seed: datasetSeed})
	ops := make([]op, len(prefs))
	for i, p := range prefs {
		ops[i] = op{kind: opPrefPut, method: http.MethodPut, url: urlPreferences,
			body: mustJSON(httpapi.PreferenceToDTO(p)), at: w.today.AddDate(0, 0, 1), pref: p}
	}
	return ops
}

// preloadDate is the date of preloaded day i of n; the last one is
// w.today.
func (w *world) preloadDate(i, n int) time.Time { return w.today.AddDate(0, 0, i-(n-1)) }

// day simulates one day of sensor readings from simSeed.
func (w *world) day(date time.Time, simSeed int64) []sensor.Observation {
	return sim.SimulateDay(w.building, w.dir, sim.DayConfig{Date: date, Seed: simSeed}).Observations
}

const zipfS = 1.1

// newZipf draws subject indices with Zipf(s) popularity; the ranking is
// the directory's order, so the hot set is part of the fixed dataset.
func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	return rand.NewZipf(rng, zipfS, 1, uint64(n-1))
}

// gen carries the state shared by the four generators.
type gen struct {
	w    *world
	rng  *rand.Rand
	zipf *rand.Zipf
	ops  []op
	// live is a second realization of today (part of the fixed dataset)
	// that ingest batches draw from, starting where the seed says and
	// restamped to the op's clock: readings arriving "now".
	live    []sensor.Observation
	livePos int
}

const batchSize = 100

func newGen(w *world, seed int64) *gen {
	rng := rand.New(rand.NewSource(seed))
	return &gen{w: w, rng: rng, zipf: newZipf(rng, len(w.users))}
}

// subject draws the next Zipf-popular occupant.
func (g *gen) subject() string { return g.w.users[g.zipf.Uint64()].ID }

// mix returns a shuffled slice of n class indices holding exactly
// round(shares[c]*n) copies of each class c >= 1, the rest class 0, so
// every seed runs the same op counts and only their order and
// arguments differ.
func (g *gen) mix(n int, shares ...float64) []int {
	out := make([]int, 0, n)
	for c, share := range shares {
		for i := int(share*float64(n) + 0.5); i > 0 && len(out) < n; i-- {
			out = append(out, c+1)
		}
	}
	for len(out) < n {
		out = append(out, 0)
	}
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// warmThenMeasured is mix for a list whose first warm entries are the
// warm-up: each part gets its exact shares, so the measured part's op
// counts do not depend on the seed.
func (g *gen) warmThenMeasured(warm, n int, shares ...float64) []int {
	return append(g.mix(warm, shares...), g.mix(n, shares...)...)
}

func (g *gen) add(o op) { g.ops = append(g.ops, o) }

func (g *gen) maintenance(k opKind, at time.Time) { g.add(op{kind: k, at: at}) }

// userRead is one POST /v1/requests/user over [from, to), decided at
// the op's clock.
func (g *gen) userRead(at time.Time, subject, service string, purpose policy.Purpose, kind sensor.ObservationKind, from, to time.Time) op {
	dto := httpapi.RequestDTO{
		ServiceID: service, Purpose: string(purpose), Kind: string(kind),
		SubjectID: subject, Time: at, From: from, To: to,
	}
	return op{kind: opUserRead, method: http.MethodPost, url: urlUser, body: mustJSON(dto), at: at, req: dto}
}

// serviceRead draws the requesting service for a read of the
// subject's last 15 minutes: 5 % emergency lookups (Policy 2 overrides
// opt-outs and notifies), the rest split over the paper's services.
func (g *gen) serviceRead(at time.Time, subject string) op {
	from := at.Add(-15 * time.Minute)
	switch r := g.rng.Float64(); {
	case r < 0.05:
		return g.userRead(at, subject, "bms-emergency", policy.PurposeEmergencyResponse, sensor.ObsWiFiConnect, from, at)
	case r < 0.15:
		return g.userRead(at, subject, "food-delivery", policy.PurposeProvidingService, sensor.ObsWiFiConnect, from, at)
	case r < 0.30:
		return g.userRead(at, subject, "smart-meeting", policy.PurposeProvidingService, sensor.ObsBLESighting, from, at)
	default:
		return g.userRead(at, subject, "concierge", policy.PurposeProvidingService, sensor.ObsBLESighting, from, at)
	}
}

// occupancy is one POST /v1/requests/occupancy?k=2 for a floor over
// the hour ending at to (minute-aligned, so the minute cube serves it).
func (g *gen) occupancy(at, to time.Time, floor string) op {
	dto := httpapi.RequestDTO{
		ServiceID: "smart-meeting", Purpose: string(policy.PurposeProvidingService),
		Kind: string(sensor.ObsBLESighting), SpaceID: floor,
		Time: at, From: to.Add(-time.Hour), To: to,
	}
	return op{kind: opOccupancy, method: http.MethodPost, url: urlOccupancyK2, body: mustJSON(dto), at: at, req: dto, k: 2}
}

func (g *gen) randomFloor() string { return g.w.floors[g.rng.Intn(len(g.w.floors))] }

func (g *gen) sql(at time.Time, sql string, k int) op {
	dto := httpapi.QueryRequestDTO{SQL: sql, ServiceID: "concierge", Purpose: string(policy.PurposeProvidingService), K: k}
	return op{kind: opQuery, method: http.MethodPost, url: urlQuery, body: mustJSON(dto), at: at, query: dto}
}

func (g *gen) notifications(at time.Time, subject string) op {
	return op{
		kind: opNotifications, method: http.MethodGet, at: at,
		url: mustURL("/v1/notifications?user=" + url.QueryEscape(subject)),
	}
}

func (g *gen) ingest(at time.Time, obs []sensor.Observation) op {
	batch := make([]httpapi.ObservationDTO, len(obs))
	for i, o := range obs {
		batch[i] = httpapi.ObservationDTO{
			SensorID: o.SensorID, Kind: string(o.Kind), Time: o.Time, SpaceID: o.SpaceID,
			DeviceMAC: o.DeviceMAC, UserID: o.UserID, Value: o.Value, Payload: o.Payload,
		}
	}
	return op{kind: opIngest, method: http.MethodPost, url: urlIngest, body: mustJSON(batch), at: at, obs: len(obs)}
}

// liveBatch takes the next batchSize readings of today's second
// realization and stamps them with the op's clock.
func (g *gen) liveBatch(at time.Time) op {
	if g.live == nil {
		g.live = g.w.day(g.w.today, datasetSeed+1000)
		g.livePos = g.rng.Intn(len(g.live))
	}
	batch := make([]sensor.Observation, batchSize)
	for i := range batch {
		batch[i] = g.live[g.livePos%len(g.live)]
		batch[i].Time = at
		g.livePos++
	}
	return g.ingest(at, batch)
}

func rfc(t time.Time) string { return t.UTC().Format(time.RFC3339) }

// generate returns the workload's op list: warm-up ops first, then the
// measured ops. warm is how many leading ops are warm-up.
func generate(w *world, workload string, sz sizing) (ops []op, warm int, err error) {
	g := newGen(w, w.seed)
	switch workload {
	case "service-reads":
		warm = sz.Ops / 10
		g.serviceReads(warm, sz.Ops)
	case "analytics-scan":
		warm = max(sz.Ops/10/5*5, 5) // whole query-query-query-query-ingest rounds
		g.analyticsScan(warm, sz.Ops, sz.PreloadDays)
	case "ingest-durable":
		warm = g.ingestDurable(sz.Ops)
	case "preference-churn":
		warm = sz.Ops / 10
		g.preferenceChurn(warm, sz.Ops)
	default:
		return nil, 0, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	return g.ops, warm, nil
}

var workloadNames = []string{"service-reads", "analytics-scan", "ingest-durable", "preference-churn"}

// serviceReads: the services' hot path. The clock starts at 10:00 and
// moves 50 ms per op, so repeated requests share decision-memo minutes
// and occupancy answers until an ingest batch invalidates them.
func (g *gen) serviceReads(warm, n int) {
	classes := []opKind{opUserRead, opOccupancy, opQuery, opNotifications, opIngest}
	start := g.w.today.Add(10 * time.Hour)
	for i, c := range g.warmThenMeasured(warm, n, 0.14, 0.03, 0.02, 0.01) {
		at := start.Add(time.Duration(i) * 50 * time.Millisecond)
		switch classes[c] {
		case opUserRead:
			g.add(g.serviceRead(at, g.subject()))
		case opOccupancy:
			g.add(g.occupancy(at, at.Truncate(time.Hour), g.randomFloor()))
		case opQuery:
			beacon := g.w.beacons[g.rng.Intn(len(g.w.beacons))]
			o := g.sql(at, fmt.Sprintf(
				"SELECT seq, time, user_id, space_id FROM observations WHERE sensor_id = '%s' AND time >= '%s' AND time < '%s'",
				beacon, rfc(at.Add(-time.Hour)), rfc(at)), 0)
			o.rowKind = sensor.ObsBLESighting
			g.add(o)
		case opNotifications:
			g.add(g.notifications(at, g.subject()))
		case opIngest:
			g.add(g.liveBatch(at))
		}
	}
}

// analyticsScan: four SQL reads then one ingest batch, so every query
// sees rows no earlier answer covered. The row-scan shape is kept off
// the rollup cubes by a lower time bound that is not minute-aligned.
func (g *gen) analyticsScan(warm, n, preloadDays int) {
	shapes := g.warmThenMeasured(warm-warm/5, n-n/5, 0.2, 2.0/15)
	n += warm
	start := g.w.today.Add(14 * time.Hour)
	q, rollups := 0, 0
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * time.Second)
		if i%5 == 4 {
			g.add(g.liveBatch(at))
			continue
		}
		switch shapes[q] {
		case 0: // enforced row scan with per-row decide/apply and the k floor
			from := rfc(g.w.today.Add(30 * time.Second))
			variants := []string{
				"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations WHERE kind = 'bluetooth_beacon' AND time >= '%s' GROUP BY space_id ORDER BY n DESC, space_id",
				"SELECT space_id, COUNT(DISTINCT user_id) AS people FROM observations WHERE kind = 'bluetooth_beacon' AND time >= '%s' GROUP BY space_id ORDER BY space_id",
				"SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations WHERE time >= '%s' AND kind = 'bluetooth_beacon' GROUP BY space_id HAVING n >= 3 ORDER BY space_id",
			}
			g.add(g.sql(at, fmt.Sprintf(variants[q%len(variants)], from), 2))
		case 1: // rollup-eligible: bucket-aligned windows the cubes answer
			// Full hours that closed before the run's clock starts, so
			// the twin, which runs when the pass is over, sees the rows
			// the query saw.
			day := g.w.preloadDate(g.rng.Intn(preloadDays), preloadDays)
			hour := day.Add(time.Duration(9+g.rng.Intn(5)) * time.Hour)
			var stmt string
			if rollups++; rollups%2 == 1 {
				stmt = "SELECT space_id, count FROM occupancy WHERE kind = 'bluetooth_beacon' AND time >= '%s' AND time < '%s'"
			} else {
				stmt = "SELECT sensor_id, COUNT(*) AS n, AVG(value) AS mean FROM observations WHERE kind = 'power_reading' AND time >= '%s' AND time < '%s' GROUP BY sensor_id ORDER BY sensor_id"
			}
			o := g.sql(at, fmt.Sprintf(stmt, rfc(hour), rfc(hour.Add(time.Hour))), 2)
			// No reading falls in the 30 s before a full hour, so the
			// unaligned twin selects the same rows by scanning.
			o.twin = g.sql(at, fmt.Sprintf(stmt, rfc(hour.Add(-30*time.Second)), rfc(hour.Add(time.Hour))), 2).body
			g.add(o)
		case 2: // time-range scan most segments' zone maps exclude
			day := g.w.preloadDate(g.rng.Intn(preloadDays), preloadDays)
			from := day.Add(time.Duration(9+g.rng.Intn(8))*time.Hour + 30*time.Second)
			o := g.sql(at, fmt.Sprintf(
				"SELECT seq, user_id, space_id FROM observations WHERE kind = 'wifi_access_point' AND time >= '%s' AND time < '%s'",
				rfc(from), rfc(from.Add(20*time.Minute))), 0)
			o.rowKind = sensor.ObsWiFiConnect
			g.add(o)
		}
		q++
	}
}

// ingestDurable streams whole simulated days in time order, starting
// the day after today, reading back the newest hour as it goes; after
// every day it compacts and sweeps; after every second day it
// checkpoints. The first tenth of a day is warm-up.
func (g *gen) ingestDurable(days int) (warm int) {
	for d := 1; d <= days; d++ {
		date := g.w.today.AddDate(0, 0, d)
		obs := g.w.day(date, g.w.seed*1000+int64(d)) // the stream is the workload: it follows -seed
		var (
			hour    time.Time
			tally   map[string]int // subject -> BLE sightings acknowledged this hour
			seen    []string       // tally's subjects, in first-seen order
			batches int
		)
		for i := 0; i < len(obs); i += batchSize {
			batch := obs[i:min(i+batchSize, len(obs))]
			at := batch[len(batch)-1].Time
			g.add(g.ingest(at, batch))
			for _, o := range batch {
				if h := o.Time.Truncate(time.Hour); !h.Equal(hour) {
					hour, tally, seen = h, make(map[string]int), seen[:0]
				}
				if s := g.w.byMAC[o.DeviceMAC]; o.Kind == sensor.ObsBLESighting && s != "" {
					if tally[s]++; tally[s] == 1 {
						seen = append(seen, s)
					}
				}
			}
			if d == 1 && warm == 0 && i >= len(obs)/10 {
				warm = len(g.ops)
			}
			// Read your writes: a subject seen this hour after every
			// tenth batch (spread out, so the reads sample the node in
			// every state rather than thirty times right after a
			// burst), the hour's occupancy of a floor after every
			// hundredth.
			batches++
			to := hour.Add(time.Hour)
			if batches%10 == 0 && len(seen) > 0 {
				s := seen[g.rng.Intn(len(seen))]
				o := g.userRead(at, s, "concierge", policy.PurposeProvidingService, sensor.ObsBLESighting, hour, to)
				o.check, o.expect = checkReadYourWrites, tally[s]
				g.add(o)
			}
			if batches%100 == 0 {
				g.add(g.occupancy(at, to, g.randomFloor()))
			}
		}
		end := date.AddDate(0, 0, 1)
		g.maintenance(opCompact, end)
		g.maintenance(opSweep, end)
		if d%2 == 0 {
			g.maintenance(opCheckpoint, end)
		}
	}
	return warm
}

// preferenceChurn: the capture -> communicate -> enforce loop. PUTs
// walk up the occupants replacing the first preference setup installed
// for each, DELETEs walk down removing it, and the next PUT restores
// what a DELETE removed, so the rule count stays level. Every
// unconditional deny PUT is followed by the affected service reading
// that subject.
func (g *gen) preferenceChurn(warm, n int) {
	classes := []opKind{opUserRead, opPrefPut, opPrefDelete, opOccupancy}
	start := g.w.today.Add(10 * time.Hour)
	prefID := func(i int) (id, user string) {
		user = g.w.users[i%len(g.w.users)].ID
		return fmt.Sprintf("wl-%s-0", user), user
	}
	var (
		putCursor = 0
		delCursor = len(g.w.users) - 1
		removed   []int            // occupants whose preference awaits restoration
		pending   = map[int]bool{} // deny PUTs whose follow-up read has not run
		followUps []followUp
	)
	for i, c := range g.warmThenMeasured(warm, n, 0.17, 0.03, 0.15) {
		at := start.Add(time.Duration(i) * 50 * time.Millisecond)
		switch classes[c] {
		case opPrefPut:
			var who int
			if len(removed) > 0 {
				who, removed = removed[0], removed[1:]
			} else {
				who = putCursor % len(g.w.users)
				putCursor++
			}
			id, user := prefID(who)
			p := churnRule(id, user, who)
			g.add(op{kind: opPrefPut, method: http.MethodPut, url: urlPreferences,
				body: mustJSON(httpapi.PreferenceToDTO(p)), at: at, pref: p})
			if p.Rule.Action == policy.ActionDeny && p.Scope.Window.IsZero() {
				o := g.userRead(at, user, p.Scope.ServiceID, policy.PurposeProvidingService, p.Scope.ObsKind, at.Add(-15*time.Minute), at)
				o.check = checkDenied
				pending[who] = true
				followUps = append(followUps, followUp{o, who})
			}
		case opPrefDelete:
			// Skip a preference whose deny check is still outstanding.
			for pending[delCursor] {
				delCursor = (delCursor + len(g.w.users) - 1) % len(g.w.users)
			}
			id, _ := prefID(delCursor)
			removed = append(removed, delCursor)
			delCursor = (delCursor + len(g.w.users) - 1) % len(g.w.users)
			g.add(op{kind: opPrefDelete, method: http.MethodDelete, at: at, prefID: id,
				url: mustURL("/v1/preferences/" + url.PathEscape(id))})
		case opUserRead:
			if len(followUps) > 0 {
				f := followUps[0]
				followUps = followUps[1:]
				delete(pending, f.who)
				f.read.at = at
				g.add(f.read)
				continue
			}
			g.add(g.serviceRead(at, g.subject()))
		case opOccupancy:
			g.add(g.occupancy(at, at.Truncate(time.Hour), g.randomFloor()))
		}
	}
}

// followUp is the read owed after a deny PUT for occupant who.
type followUp struct {
	read op
	who  int
}

// churnRule cycles deny / coarse-location / after-hours rules by
// occupant, so which rules a run leaves installed does not depend on
// the order the seed shuffled the ops into.
func churnRule(id, user string, i int) policy.Preference {
	p := policy.Preference{ID: id, UserID: user, Name: "churn", Source: "explicit"}
	switch i % 3 {
	case 0:
		p.Scope = policy.Scope{ObsKind: sensor.ObsBLESighting, ServiceID: "concierge"}
		p.Rule = policy.Rule{Action: policy.ActionDeny}
	case 1:
		p.Scope = policy.Scope{ObsKind: sensor.ObsBLESighting, ServiceID: "concierge"}
		p.Rule = policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor}
	default:
		p.Scope = policy.Scope{ObsKind: sensor.ObsWiFiConnect, Window: policy.AfterHours}
		p.Rule = policy.Rule{Action: policy.ActionDeny}
	}
	return p
}
