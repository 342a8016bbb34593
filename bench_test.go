package tippers

// Benchmark harness: one bench (or bench family) per experiment in
// DESIGN.md's index. Run with:
//
//	go test -bench=. -benchmem
//
// The sub-benchmark names carry the sweep parameter (users=N,
// prefs=N) so `benchstat` output reads as the experiment tables.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/colstore"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/iota"
	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/sim"
	"github.com/tippers/tippers/internal/telemetry"
)

var benchDay = time.Date(2017, time.June, 7, 0, 0, 0, 0, time.UTC)

// benchWorkload builds the simulated rule population and request
// stream once, so each engine variant can be loaded identically.
func benchWorkload(b *testing.B, users int) (cfg enforce.Config, prefs []policy.Preference, bp policy.BuildingPolicy, reqs []enforce.Request) {
	b.Helper()
	building, err := sim.SmallDBH().Build()
	if err != nil {
		b.Fatal(err)
	}
	dir := sim.GeneratePopulation(building, users, sim.CampusMix(), 2017)
	services := service.NewRegistry()
	services.MustRegister(service.Concierge())
	services.MustRegister(service.SmartMeeting())
	cfg = enforce.Config{Spaces: building.Spaces, Services: services, DefaultAllow: true}
	prefs = sim.GeneratePreferences(building, dir, []string{"concierge", "smart-meeting"}, sim.DefaultPreferenceWorkload(1))
	bp = policy.Policy2EmergencyLocation(building.Spec.ID)
	reqs = sim.GenerateRequests(building, dir, []string{"concierge", "smart-meeting"}, benchDay,
		sim.RequestWorkload{N: 4096, Seed: 3, EmergencyFraction: 0.05})
	return cfg, prefs, bp, reqs
}

// loadBenchEngine installs the workload's rules into e.
func loadBenchEngine(b *testing.B, e enforce.Engine, prefs []policy.Preference, bp policy.BuildingPolicy) {
	b.Helper()
	for _, p := range prefs {
		if err := e.AddPreference(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.AddPolicy(bp); err != nil {
		b.Fatal(err)
	}
}

// benchEngines builds a matched rule set on the reference and
// compiled (memo-free) engine variants.
func benchEngines(b *testing.B, users int) (naive, compiled enforce.Engine, reqs []enforce.Request) {
	b.Helper()
	cfg, prefs, bp, reqs := benchWorkload(b, users)
	n := enforce.NewNaive(cfg)
	x := enforce.NewCompiledMemo(cfg, -1)
	loadBenchEngine(b, n, prefs, bp)
	loadBenchEngine(b, x, prefs, bp)
	return n, x, reqs
}

// BenchmarkEnforceQueryScaling is experiment E1: decision latency on
// the optimized engine as the building's rule count grows.
func BenchmarkEnforceQueryScaling(b *testing.B) {
	for _, users := range []int{10, 100, 1000, 5000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			_, indexed, reqs := benchEngines(b, users)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				indexed.Decide(reqs[i%len(reqs)], nil)
			}
		})
	}
}

// BenchmarkEnforceNaiveVsIndexed is experiment E2: the ablation pair
// under identical workloads.
func BenchmarkEnforceNaiveVsIndexed(b *testing.B) {
	for _, users := range []int{10, 1000} {
		naive, indexed, reqs := benchEngines(b, users)
		b.Run(fmt.Sprintf("engine=naive/users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				naive.Decide(reqs[i%len(reqs)], nil)
			}
		})
		b.Run(fmt.Sprintf("engine=indexed/users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				indexed.Decide(reqs[i%len(reqs)], nil)
			}
		})
	}
}

// BenchmarkEnforceCached is the third E2 arm: the compiled engine's
// built-in decision memo on a repetitive (polling-service) workload.
// hit-share is the share of the timed decisions the memo answered.
func BenchmarkEnforceCached(b *testing.B) {
	for _, users := range []int{10, 1000} {
		cfg, prefs, bp, reqs := benchWorkload(b, users)
		memo := enforce.NewCompiled(cfg)
		loadBenchEngine(b, memo, prefs, bp)
		// Polling workload: 64 distinct requests issued repeatedly in one
		// minute. The memo holds one evaluation minute's decisions, so
		// requests spread over the day would never hit it.
		hot := reqs[:64]
		for i := range hot {
			hot[i].Time = benchDay.Add(14 * time.Hour)
		}
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			hits0, misses0 := memo.Stats()
			for i := 0; i < b.N; i++ {
				memo.Decide(hot[i%len(hot)], nil)
			}
			hits, misses := memo.Stats()
			hits, misses = hits-hits0, misses-misses0
			b.ReportMetric(float64(hits)/float64(hits+misses), "hit-share")
		})
	}
}

// benchCompiledWorld is one loaded scale point of the compiled-engine
// sweep, cached at package level so -count repetitions pay the
// million-preference registration once per process.
type benchCompiledWorld struct {
	engine enforce.Engine
	reqs   []enforce.Request
}

var benchCompiledWorlds = map[int]*benchCompiledWorld{}

// benchCompiledDecideWorld registers prefCount synthetic preferences
// (one per subject, scopes rotating over service / space-subtree /
// time-window / sensor-kind shapes so every index dimension is
// populated) on a memo-free compiled engine, then builds a request
// stream over a subject sample.
func benchCompiledDecideWorld(b *testing.B, prefCount int) *benchCompiledWorld {
	b.Helper()
	if w := benchCompiledWorlds[prefCount]; w != nil {
		return w
	}
	building, err := sim.SmallDBH().Build()
	if err != nil {
		b.Fatal(err)
	}
	services := service.NewRegistry()
	services.MustRegister(service.Concierge())
	services.MustRegister(service.SmartMeeting())
	cfg := enforce.Config{Spaces: building.Spaces, Services: services, DefaultAllow: true}
	// Memo off: the sweep must measure the indexed decision path
	// itself, not memo hits that would flatten any engine.
	engine := enforce.NewCompiledMemo(cfg, -1)

	var rooms []string
	for _, sp := range building.Spaces.All() {
		rooms = append(rooms, sp.ID)
	}
	windows := []policy.DailyWindow{{}, policy.AfterHours, policy.BusinessHours}
	for i := 0; i < prefCount; i++ {
		subject := fmt.Sprintf("u%07d", i)
		scope := policy.Scope{ServiceID: "concierge"}
		switch i % 4 {
		case 1:
			scope.SpaceID = rooms[i%len(rooms)]
		case 2:
			scope.Window = windows[i%len(windows)]
		case 3:
			scope.ObsKind = sensor.ObsWiFiConnect
		}
		err := engine.AddPreference(policy.Preference{
			ID:     "p-" + subject,
			UserID: subject,
			Scope:  scope,
			Rule:   policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranBuilding},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := engine.AddPolicy(policy.Policy2EmergencyLocation(building.Spec.ID)); err != nil {
		b.Fatal(err)
	}

	reqs := make([]enforce.Request, 1024)
	for i := range reqs {
		// A multiplicative stride walks the subject space so the
		// request sample is spread across the whole population.
		subject := fmt.Sprintf("u%07d", (i*2654435761)%prefCount)
		reqs[i] = enforce.Request{
			ServiceID:   "concierge",
			SubjectID:   subject,
			Kind:        sensor.ObsWiFiConnect,
			Purpose:     policy.PurposeProvidingService,
			SpaceID:     rooms[i%len(rooms)],
			Granularity: policy.GranExact,
			Time:        benchDay.Add(14 * time.Hour),
		}
	}
	w := &benchCompiledWorld{engine: engine, reqs: reqs}
	benchCompiledWorlds[prefCount] = w
	return w
}

// BenchmarkCompiledDecide is the §V.C scale sweep: one decision on the
// compiled engine as registered preferences grow from 10 to 1,000,000.
// scripts/bench.sh gates it on counts: allocs/op stays 0, and
// consulted/op — the rules a decision looked at — may not grow along
// the sweep, the count form of "a decision touches only the subject's
// own rules" (every request names a subject with one preference, and
// the emergency policy is no candidate for a service request: 1).
// `benchdiff flat` holds the ns/op ratio inside the same run under a
// bound a linear candidate walk exceeds many times over.
func BenchmarkCompiledDecide(b *testing.B) {
	for _, prefs := range []int{10, 10_000, 1_000_000} {
		b.Run(fmt.Sprintf("prefs=%d", prefs), func(b *testing.B) {
			w := benchCompiledDecideWorld(b, prefs)
			// Settle the collector after the multi-gigabyte load phase,
			// then hold it off for the timed region: the flatness gate
			// measures decision latency, and a background mark cycle
			// triggered by registration garbage would charge a heap scan
			// proportional to the preference count to whichever scale
			// point it lands on.
			runtime.GC()
			prev := debug.SetGCPercent(-1)
			b.Cleanup(func() { debug.SetGCPercent(prev) })
			b.ReportAllocs()
			b.ResetTimer()
			consulted := 0
			for i := 0; i < b.N; i++ {
				d := w.engine.Decide(w.reqs[i%len(w.reqs)], nil)
				consulted += d.PreferencesConsulted + d.PoliciesConsulted
			}
			b.ReportMetric(float64(consulted)/float64(b.N), "consulted/op")
		})
	}
}

// BenchmarkReasonerConflicts is experiment E3: full conflict
// detection over growing preference sets.
func BenchmarkReasonerConflicts(b *testing.B) {
	building, err := sim.SmallDBH().Build()
	if err != nil {
		b.Fatal(err)
	}
	pols := []policy.BuildingPolicy{
		policy.Policy2EmergencyLocation(building.Spec.ID),
		policy.Policy1Comfort(building.Spec.ID, 70),
	}
	for _, users := range []int{10, 100, 1000} {
		dir := sim.GeneratePopulation(building, users, sim.CampusMix(), 5)
		r := reasoner.NewWithGroups(building.Spaces, func(id string) []profile.Group {
			if u, ok := dir.Lookup(id); ok {
				return u.Groups()
			}
			return nil
		})
		prefs := sim.GeneratePreferences(building, dir, []string{"concierge"}, sim.DefaultPreferenceWorkload(7))
		b.Run(fmt.Sprintf("prefs=%d", len(prefs)), func(b *testing.B) {
			conflicts := 0
			for i := 0; i < b.N; i++ {
				conflicts = len(r.Detect(pols, prefs))
			}
			b.ReportMetric(float64(conflicts), "conflicts")
		})
	}
}

// BenchmarkSetPreferenceAtScale is E3's other column: what one
// preference write costs a node — engine update plus conflict
// maintenance by delta — with 1 k, 16 k and 64 k preferences installed.
// Each write replaces one occupant's rule, so the installed count
// holds. Reported, not gated; internal/core's
// TestSetPreferenceAllocsFlat pins the flatness as an allocation count.
func BenchmarkSetPreferenceAtScale(b *testing.B) {
	for _, installed := range []int{1_000, 16_000, 64_000} {
		b.Run(fmt.Sprintf("installed=%d", installed), func(b *testing.B) {
			dep, err := NewDeployment(DeploymentConfig{
				Spec: SmallDBH(), Population: installed, Seed: 1, RegisterPaperPolicies: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer dep.Close()
			w := sim.DefaultPreferenceWorkload(7)
			w.PerUser = 1
			prefs := sim.GeneratePreferences(dep.Building, dep.Users, []string{"concierge"}, w)
			for _, p := range prefs {
				if err := dep.BMS.SetPreference(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := dep.BMS.SetPreference(prefs[i%len(prefs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNotificationSelection is experiment E4's hot path: a fresh
// assistant digesting a 50-resource document.
func BenchmarkNotificationSelection(b *testing.B) {
	doc := benchResourceDoc(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := iota.New(iota.Config{UserID: "mary", Clock: func() time.Time { return benchDay }})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		a.ProcessDocument(doc)
	}
}

// BenchmarkPreferenceModelLearn measures the E4 learner's update and
// prediction costs.
func BenchmarkPreferenceModelLearn(b *testing.B) {
	doc := benchResourceDoc(50)
	features := make([]iota.Features, len(doc.Resources))
	for i, res := range doc.Resources {
		features[i] = iota.FeaturesOf(res)
	}
	m := iota.NewPrefModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := features[i%len(features)]
		m.Learn(f, i%3 == 0)
		m.ObjectionProbability(f)
	}
}

// BenchmarkObstoreIngest is experiment E6's write path.
func BenchmarkObstoreIngest(b *testing.B) {
	store := obstore.New()
	store.SetDefaultRetention(isodur.SixMonths)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := store.Append(sensor.Observation{
			SensorID: fmt.Sprintf("ap-%d", i%60),
			UserID:   fmt.Sprintf("u%04d", i%200),
			Kind:     sensor.ObsWiFiConnect,
			SpaceID:  "dbh/1/100",
			Time:     benchDay.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObstoreIngestDurable is BenchmarkObstoreIngest with the
// write-ahead log underneath (group commit at the default 10ms sync
// interval): the price of crash safety on the E6 write path. The
// acceptance bar is within 3× of the in-memory baseline.
func BenchmarkObstoreIngestDurable(b *testing.B) {
	store, err := obstore.OpenDurable(obstore.DurableConfig{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	store.SetDefaultRetention(isodur.SixMonths)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := store.Append(sensor.Observation{
			SensorID: fmt.Sprintf("ap-%d", i%60),
			UserID:   fmt.Sprintf("u%04d", i%200),
			Kind:     sensor.ObsWiFiConnect,
			SpaceID:  "dbh/1/100",
			Time:     benchDay.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObstoreIngestConcurrent is BenchmarkObstoreIngestDurable
// with b.N appends shared among 1, 2 and 8 writers, on a store opened
// as tippersd opens it. The store has one append point — seq, WAL
// record and row under one lock — so this is what concurrent ingest
// costs it.
func BenchmarkObstoreIngestConcurrent(b *testing.B) {
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			store, err := obstore.OpenDurable(obstore.DurableConfig{Dir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			store.SetDefaultRetention(isodur.SixMonths)
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := int(next.Add(1)) - 1; i < b.N; i = int(next.Add(1)) - 1 {
						if _, err := store.Append(sensor.Observation{
							SensorID: fmt.Sprintf("ap-%d", i%60),
							UserID:   fmt.Sprintf("u%04d", i%200),
							Kind:     sensor.ObsWiFiConnect,
							SpaceID:  "dbh/1/100",
							Time:     benchDay.Add(time.Duration(i) * time.Second),
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkObstoreQuery measures the indexed read path at 100k rows.
func BenchmarkObstoreQuery(b *testing.B) {
	store := obstore.New()
	for i := 0; i < 100_000; i++ {
		if _, err := store.Append(sensor.Observation{
			SensorID: fmt.Sprintf("ap-%d", i%60),
			UserID:   fmt.Sprintf("u%04d", i%200),
			Kind:     sensor.ObsWiFiConnect,
			SpaceID:  fmt.Sprintf("dbh/%d", i%6+1),
			Time:     benchDay.Add(time.Duration(i) * time.Second),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.Query(obstore.Filter{UserID: fmt.Sprintf("u%04d", i%200), Limit: 100})
	}
}

// BenchmarkObstoreSweep measures the retention pass over 100k rows.
func BenchmarkObstoreSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := obstore.New()
		store.SetDefaultRetention(isodur.MustParse("PT1H"))
		for j := 0; j < 100_000; j++ {
			if _, err := store.Append(sensor.Observation{
				SensorID: "ap-1", Kind: sensor.ObsWiFiConnect,
				Time: benchDay.Add(time.Duration(j) * time.Second),
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		store.Sweep(benchDay.Add(15 * time.Hour))
	}
}

// BenchmarkRetentionMinute is one minute of a node enforcing retention
// at steady state: the minute's rows (the paper's mix, about 100 Wi-Fi,
// 200 power and 750 BLE an hour), a Sweep, and a compaction of a
// durable tier of hour buckets. Policy 2's Wi-Fi rule runs at PT3H and
// a day's default covers the rest, so every sealed hour holds Wi-Fi rows
// beside rows that outlive them, and the node's size does not follow
// b.N. It reports the segment-file bytes written per expired row
// (written-B/expired; a segment is rewritten once when the Wi-Fi cutoff
// passes its newest row, and leaves unwritten when the default's does)
// and the segments a sweep reads (segs/op; Sweep reads none: retention
// needs no scan of the tier).
func BenchmarkRetentionMinute(b *testing.B) {
	start := benchDay.AddDate(0, 0, 1)
	now := start
	clock := func() time.Time { return now }
	store := obstore.New()
	store.SetClock(clock)
	store.AddRetentionRule(obstore.RetentionRule{Kind: sensor.ObsWiFiConnect, TTL: isodur.MustParse("PT3H")})
	store.SetDefaultRetention(isodur.Day)
	cs, err := colstore.Open(colstore.Config{Dir: b.TempDir(), BucketDur: time.Hour, Clock: clock})
	if err != nil {
		b.Fatal(err)
	}
	if err := cs.AttachStore(store); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	appended := 0
	last := benchDay
	ingest := func() { // the rows observed from last to now
		for ; last.Before(now); last = last.Add(time.Duration(rng.Int63n(int64(6860 * time.Millisecond)))) {
			o := sensor.Observation{SensorID: "ble-1", Kind: sensor.ObsBLESighting, SpaceID: "dbh/1/100",
				UserID: fmt.Sprintf("u%02d", rng.Intn(40)), Time: last}
			switch n := rng.Intn(1050); {
			case n < 100:
				o.SensorID, o.Kind = "ap-1", sensor.ObsWiFiConnect
			case n < 300:
				o.SensorID, o.Kind, o.UserID = "pm-1", sensor.ObsPowerReading, ""
			}
			if _, err := store.Append(o); err != nil {
				b.Fatal(err)
			}
			appended++
		}
	}
	reg := telemetry.NewRegistry()
	cs.RegisterMetrics(reg)
	written := func() float64 {
		v, _ := reg.LookupValue("tippers_colstore_segment_bytes_written_total", nil)
		return v
	}
	ingest() // a day behind the start, sealed
	if _, err := cs.CompactOnce(); err != nil {
		b.Fatal(err)
	}
	expired0, written0 := appended-store.Count(obstore.Filter{}), written()
	var sweepReads uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = start.Add(time.Duration(i+1) * time.Minute)
		ingest()
		read0 := cs.Stats().SegmentsRead
		store.Sweep(now)
		sweepReads += cs.Stats().SegmentsRead - read0
		if _, err := cs.CompactOnce(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	expired := appended - store.Count(obstore.Filter{}) - expired0
	if expired <= 0 {
		b.Fatal("nothing expired")
	}
	b.ReportMetric((written()-written0)/float64(expired), "written-B/expired")
	b.ReportMetric(float64(sweepReads)/float64(b.N), "segs/op")
}

// BenchmarkFigure2RoundTrip measures policy-language serialization:
// the IRR's fetch-and-validate path an IoTA pays per document.
func BenchmarkFigure2RoundTrip(b *testing.B) {
	raw, err := Figure2Document().MarshalIndent()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseResourceDoc(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func parseResourceDoc(raw []byte) (ResourceDocument, error) {
	return policy.ParseResourceDocument(raw)
}

// BenchmarkIngestPipeline measures the BMS capture path (attribution,
// capture-time enforcement, store append, stream-hub wake).
func BenchmarkIngestPipeline(b *testing.B) {
	dep, err := NewDeployment(DeploymentConfig{Spec: SmallDBH(), Population: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	users := dep.Users.All()
	aps := dep.Building.Sensors.ByType(sensor.TypeWiFiAP)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := users[i%len(users)]
		err := dep.BMS.Ingest(sensor.Observation{
			SensorID:  aps[i%len(aps)].ID,
			Kind:      sensor.ObsWiFiConnect,
			DeviceMAC: u.DeviceMACs[0],
			Time:      benchDay.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchBody is a reusable request body.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchResponse is a reusable http.ResponseWriter that keeps only the
// status.
type benchResponse struct {
	header http.Header
	code   int
}

func (r *benchResponse) Header() http.Header  { return r.header }
func (r *benchResponse) WriteHeader(code int) { r.code = code }
func (r *benchResponse) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return len(p), nil
}

// BenchmarkIngestBatchHTTP is the capture path as the ingest-durable
// workload drives it: one 100-observation POST /v1/observations (a
// simulated day's readings, sampled across it) through
// APIHandler().ServeHTTP on a durable store, with the request and the
// response writer reused. B/op and allocs/op are what reading and
// decoding the batch costs next to ingesting and logging its rows. A
// fresh node on an emptied directory replaces the filling one every
// perNode batches, with the timer stopped, so a 100000x run holds at
// most 75 000 rows, not ten million. A node's first batches allocate
// more than its later ones, so perNode also sets the mean, which must
// sit well inside two integers for the truncated allocs/op the ledger
// gates to read the same from run to run. The mean moves with perNode
// as ≈ 5.55 + 660/perNode (2 vCPUs; 6.24 at 1000, 6.02 at 1500 — which
// the truncated count could read as 5 or 6 by GC timing — and 5.77 at
// 3000). 750 puts it at 6.43, which reads 6.
func BenchmarkIngestBatchHTTP(b *testing.B) {
	const perNode = 750
	dir := b.TempDir()
	var dep *Deployment
	open := func() {
		if dep != nil {
			dep.Close()
			if err := os.RemoveAll(dir); err != nil {
				b.Fatal(err)
			}
		}
		store, err := OpenDurableStore(DurableStoreConfig{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if dep, err = NewDeployment(DeploymentConfig{Spec: SmallDBH(), Population: 100, Seed: 1, Store: store,
			Clock: func() time.Time { return benchDay.Add(24 * time.Hour) }}); err != nil {
			b.Fatal(err)
		}
	}
	open()
	defer func() { dep.Close() }()

	day := sim.SimulateDay(dep.Building, dep.Users, sim.DayConfig{Date: benchDay, Seed: 1}).Observations
	batch := make([]httpapi.ObservationDTO, 100)
	for i := range batch {
		o := day[i*len(day)/len(batch)]
		batch[i] = httpapi.ObservationDTO{
			SensorID: o.SensorID, Kind: string(o.Kind), Time: o.Time, SpaceID: o.SpaceID,
			DeviceMAC: o.DeviceMAC, UserID: o.UserID, Value: o.Value, Payload: o.Payload,
		}
	}
	raw, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}
	var (
		body benchBody
		req  = httptest.NewRequest(http.MethodPost, "/v1/observations", nil)
		rw   = benchResponse{header: http.Header{}}
	)
	h := dep.APIHandler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%perNode == 0 {
			b.StopTimer()
			open()
			h = dep.APIHandler()
			b.StartTimer()
		}
		body.Reset(raw)
		req.Body, req.ContentLength = &body, int64(len(raw))
		rw.code = 0
		h.ServeHTTP(&rw, req)
		if rw.code != http.StatusOK {
			b.Fatalf("batch %d: status %d", i, rw.code)
		}
	}
}

// BenchmarkRequestUserHTTP is the service-reads hot path: one POST
// /v1/requests/user releasing 20 of a subject's sealed BLE sightings
// through APIHandler().ServeHTTP, with the request and the response
// writer reused. B/op and allocs/op are what decoding the request,
// deciding (a memo hit after the first), streaming the rows out of the
// scan and appending the response body cost together.
func BenchmarkRequestUserHTTP(b *testing.B) {
	dep, err := NewDeployment(DeploymentConfig{Spec: SmallDBH(), Population: 100, Seed: 1,
		Clock: func() time.Time { return benchDay.Add(24 * time.Hour) }})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.SimulateDay(benchDay, 1); err != nil {
		b.Fatal(err)
	}
	if _, err := dep.BMS.Columnar().CompactOnce(); err != nil {
		b.Fatal(err)
	}
	h := dep.APIHandler()
	var (
		raw  []byte
		resp httpapi.ResponseDTO
	)
	for _, u := range dep.Users.All() {
		raw, err = json.Marshal(httpapi.RequestDTO{ServiceID: "concierge", Purpose: string(PurposeProvidingService),
			Kind: string(sensor.ObsBLESighting), SubjectID: u.ID, Limit: 20})
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/requests/user", bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if resp = (httpapi.ResponseDTO{}); json.Unmarshal(rec.Body.Bytes(), &resp) == nil && len(resp.Observations) == 20 {
			break
		}
	}
	if len(resp.Observations) != 20 {
		b.Fatal("no subject has 20 releasable BLE sightings")
	}
	var (
		body benchBody
		req  = httptest.NewRequest(http.MethodPost, "/v1/requests/user", nil)
		rw   = benchResponse{header: http.Header{}}
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(raw)
		req.Body, req.ContentLength = &body, int64(len(raw))
		rw.code = 0
		h.ServeHTTP(&rw, req)
		if rw.code != http.StatusOK {
			b.Fatalf("request %d: status %d", i, rw.code)
		}
	}
}

// BenchmarkGroupedQuery is the analytics-scan workload's enforced SQL
// shape — distinct BLE subjects per space under a k floor of 2 —
// through APIHandler().ServeHTTP over a simulated day sealed into
// segments, with the request and the response writer reused. The
// statement's window is a quarter hour of the morning, so a 100000x run
// stays short; groups/op is how many spaces it groups, released or
// suppressed. B/op and allocs/op are the statement's bookkeeping next
// to decoding, scanning, deciding and encoding: what grows with the
// groups shows here.
func BenchmarkGroupedQuery(b *testing.B) {
	dep, err := NewDeployment(DeploymentConfig{Population: 100, Seed: 1,
		Clock: func() time.Time { return benchDay.Add(24 * time.Hour) }})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.SimulateDay(benchDay, 1); err != nil {
		b.Fatal(err)
	}
	if _, err := dep.BMS.Columnar().CompactOnce(); err != nil {
		b.Fatal(err)
	}
	from, to := benchDay.Add(9*time.Hour+30*time.Second), benchDay.Add(9*time.Hour+15*time.Minute)
	raw, err := json.Marshal(httpapi.QueryRequestDTO{
		SQL: fmt.Sprintf("SELECT space_id, COUNT(DISTINCT user_id) AS n FROM observations WHERE kind = 'bluetooth_beacon' AND time >= '%s' AND time < '%s' GROUP BY space_id ORDER BY n DESC, space_id",
			from.Format(time.RFC3339), to.Format(time.RFC3339)),
		ServiceID: "concierge", Purpose: string(PurposeProvidingService), K: 2})
	if err != nil {
		b.Fatal(err)
	}
	h := dep.APIHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(raw)))
	var res httpapi.QueryResultDTO
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &res) != nil {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	groups := len(res.Rows) + res.Stats.SuppressedGroups
	if len(res.Rows) == 0 || res.Stats.SuppressedGroups == 0 {
		b.Fatalf("%d spaces released, %d suppressed: the statement exercises neither the groups nor the k floor", len(res.Rows), res.Stats.SuppressedGroups)
	}
	var (
		body benchBody
		req  = httptest.NewRequest(http.MethodPost, "/v1/query", nil)
		rw   = benchResponse{header: http.Header{}}
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(raw)
		req.Body, req.ContentLength = &body, int64(len(raw))
		rw.code = 0
		h.ServeHTTP(&rw, req)
		if rw.code != http.StatusOK {
			b.Fatalf("query %d: status %d", i, rw.code)
		}
	}
	b.ReportMetric(float64(groups), "groups/op")
}

// BenchmarkHTTPRoundtrip is experiment E7: full request latency over
// the REST API (network + JSON + enforcement + data path).
func BenchmarkHTTPRoundtrip(b *testing.B) {
	dep, err := NewDeployment(DeploymentConfig{Spec: SmallDBH(), Population: 50, Seed: 1,
		Clock: func() time.Time { return benchDay.Add(14 * time.Hour) }})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	if _, err := dep.SimulateDay(benchDay, 3); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(dep.APIHandler())
	defer srv.Close()
	client := httpapi.NewClient(srv.URL, nil)
	users := dep.Users.All()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := client.RequestUser(ctx, Request{
			ServiceID: "concierge",
			Purpose:   PurposeProvidingService,
			Kind:      sensor.ObsWiFiConnect,
			SubjectID: users[i%len(users)].ID,
			Time:      benchDay.Add(14 * time.Hour),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateDay measures workload generation itself, so the
// experiment harness's fixed costs are visible.
func BenchmarkSimulateDay(b *testing.B) {
	building, err := sim.SmallDBH().Build()
	if err != nil {
		b.Fatal(err)
	}
	dir := sim.GeneratePopulation(building, 100, sim.CampusMix(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SimulateDay(building, dir, sim.DayConfig{Date: benchDay, Seed: int64(i)})
	}
}

// BenchmarkFigure1EndToEnd runs the complete ten-step loop per
// iteration: the framework's "one user walks in" cost.
func BenchmarkFigure1EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dep, err := NewDeployment(DeploymentConfig{
			Spec: SmallDBH(), Population: 10, Seed: 1, RegisterPaperPolicies: true,
			Clock: func() time.Time { return benchDay.Add(14 * time.Hour) },
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dep.SimulateDay(benchDay, 7); err != nil {
			b.Fatal(err)
		}
		mary := dep.Users.All()[0]
		assistant, err := dep.NewAssistant(mary.ID)
		if err != nil {
			b.Fatal(err)
		}
		notices := assistant.ProcessDocument(dep.IRR.Document(dep.Building.Spec.ID))
		if len(notices) > 0 {
			if err := assistant.Feedback(notices[0].Fingerprint, true); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := dep.BMS.RequestUser(Request{
			ServiceID: "concierge", Purpose: PurposeProvidingService,
			Kind: sensor.ObsWiFiConnect, SubjectID: mary.ID,
			Time: benchDay.Add(14 * time.Hour),
		}); err != nil {
			b.Fatal(err)
		}
		dep.Close()
	}
}

func benchResourceDoc(n int) policy.ResourceDocument {
	purposes := policy.AllPurposes()
	var doc policy.ResourceDocument
	for i := 0; i < n; i++ {
		doc.Resources = append(doc.Resources, policy.Resource{
			Info: policy.Info{Name: fmt.Sprintf("bench-res-%03d", i)},
			Purpose: policy.PurposeBlock{Entries: map[policy.Purpose]policy.PurposeDetail{
				purposes[i%len(purposes)]: {Description: "bench"},
			}},
			Observations: []policy.ObservationDesc{{Name: "wifi_access_point"}},
			Retention:    &policy.RetentionBlock{Duration: isodur.SixMonths},
		})
	}
	return doc
}
