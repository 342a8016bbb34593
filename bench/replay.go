package main

// The traced run's child spans. After each op is served, its pipeline
// is replayed through the layers' public API on the inputs the op
// carried, each call timed from outside. Layers whose calls have side
// effects run on shadow instances fed the same inputs: a second
// compiled engine (its decision memo then hits and misses as the
// node's does), a second durable store and a bare WAL in a scratch
// directory, and a second reasoner. Read-only layers (the observation
// store, the columnar tier) are the node's own.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
	"github.com/tippers/tippers/internal/wal"
)

type tracer struct {
	n         *node
	rec       recorder
	recording bool
	op        int

	engine   enforce.Engine
	transf   *privacy.Transformer
	reason   *reasoner.Reasoner
	policies []policy.BuildingPolicy
	prefs    map[string]policy.Preference
	store    *obstore.Store
	storeReg *telemetry.Registry
	log      *wal.Log
	logSeq   uint64
	dir      string
	encBuf   bytes.Buffer

	storeQueries, storeRows int
	queries, rollupServed   int
	conflicts               int
	// readBusy is the ServeHTTP time of read ops; readEnforce the
	// decide and apply time replayed for them.
	readBusy, readEnforce time.Duration
}

func newTracer(n *node) (*tracer, error) {
	bms := n.dep.BMS
	engine, err := enforce.New(engineFlavor, enforce.Config{
		Spaces: bms.Spaces(), Services: bms.Services(), DefaultAllow: true,
	})
	if err != nil {
		return nil, err
	}
	t := &tracer{
		n:        n,
		engine:   engine,
		transf:   privacy.NewTransformer(bms.Spaces(), 0, []byte("tippers-simulation-key")),
		reason:   reasoner.New(bms.Spaces(), 0),
		policies: bms.Policies(),
		prefs:    make(map[string]policy.Preference),
		storeReg: telemetry.NewRegistry(),
		dir:      n.dir + "-shadow",
	}
	for _, p := range t.policies {
		if err := engine.AddPolicy(p); err != nil {
			return nil, err
		}
	}
	t.store, err = obstore.OpenDurable(obstore.DurableConfig{
		Dir: filepath.Join(t.dir, "store"), SyncInterval: walSync, Logger: quietLogger,
	})
	if err != nil {
		return nil, err
	}
	t.store.RegisterMetrics(t.storeReg)
	t.log, err = wal.Open(wal.Options{Dir: filepath.Join(t.dir, "wal"), SyncInterval: walSync, Logger: quietLogger})
	if err != nil {
		t.store.Close()
		return nil, err
	}
	return t, nil
}

// timed runs fn, and while recording adds a span for it under parent.
func (t *tracer) timed(name string, parent, calls int, fn func()) (int, time.Duration) {
	t0 := time.Now()
	fn()
	dt := time.Since(t0)
	if !t.recording {
		return 0, dt
	}
	return t.rec.add(name, t.op, parent, t0, dt, calls), dt
}

// coalesced accumulates the calls of a per-row callback into one span.
type coalesced struct {
	first time.Time
	total time.Duration
	calls int
}

func (c *coalesced) time(fn func()) {
	t0 := time.Now()
	fn()
	c.total += time.Since(t0)
	if c.calls == 0 {
		c.first = t0
	}
	c.calls++
}

func (t *tracer) flush(name string, parent int, c *coalesced) time.Duration {
	if c.calls > 0 && t.recording {
		t.rec.add(name, t.op, parent, c.first, c.total, c.calls)
	}
	return c.total
}

func (t *tracer) groups(subject string) []profile.Group {
	if u, ok := t.n.dep.Users.Lookup(subject); ok {
		return u.Groups()
	}
	return nil
}

// filterFor is the request manager's request-to-filter translation.
func (t *tracer) filterFor(req enforce.Request) obstore.Filter {
	f := obstore.Filter{UserID: req.SubjectID, Kind: req.Kind, From: req.From, To: req.To, AfterSeq: req.AfterSeq, Limit: req.Limit}
	if req.SpaceID != "" {
		f.SpaceIDs = t.subtree(req.SpaceID)
	}
	return f
}

func (t *tracer) subtree(spaceID string) []string {
	if ids, err := t.n.dep.BMS.Spaces().Subtree(spaceID); err == nil {
		return ids
	}
	return []string{spaceID}
}

// encode times the JSON encoding of the response the node produced:
// the body is decoded back into its wire type (untimed) and that value
// is encoded again.
func (t *tracer) encode(parent int, dto any, body []byte) {
	if err := json.Unmarshal(body, dto); err != nil {
		return
	}
	t.timed("httpapi.encode", parent, 1, func() {
		t.encBuf.Reset()
		_ = json.NewEncoder(&t.encBuf).Encode(dto)
	})
}

// replay records op i's root span and replays its pipeline. With
// record false (setup and warm-up) the shadows still see every input,
// so their state tracks the node's, but nothing is recorded.
func (t *tracer) replay(i int, o *op, body []byte, start time.Time, dur time.Duration, record bool) {
	t.recording, t.op = record, i
	root := 0
	if record {
		root = t.rec.add(rootSpan, i, 0, start, dur, 1)
	}
	var enforceTime time.Duration
	switch o.kind {
	case opUserRead:
		enforceTime = t.replayUser(root, o, body)
	case opOccupancy:
		enforceTime = t.replayOccupancy(root, o, body)
	case opQuery:
		enforceTime = t.replayQuery(root, o, body)
	case opNotifications:
		t.encode(root, &[]httpapi.NotificationDTO{}, body)
	case opIngest:
		t.replayIngest(root, o, body)
	case opPrefPut, opPrefDelete:
		t.replayPreference(root, o, body)
	}
	if record && !o.kind.write() {
		t.readBusy += dur
		t.readEnforce += enforceTime
	}
}

func (t *tracer) replayUser(root int, o *op, body []byte) (enforceTime time.Duration) {
	var req enforce.Request
	t.timed("httpapi.decode", root, 1, func() {
		var dto httpapi.RequestDTO
		_ = json.Unmarshal(o.body, &dto)
		req, _ = httpapi.RequestFromDTO(dto)
	})
	groups := t.groups(req.SubjectID)
	var dec enforce.Decision
	_, dt := t.timed("enforce.decide", root, 1, func() { dec = t.engine.Decide(req, groups) })
	enforceTime += dt
	if dec.Allowed && dec.Effective.MinAggregationK <= 1 {
		var obs []sensor.Observation
		t.timed("obstore.query", root, 1, func() { obs = t.n.dep.BMS.Store().Query(t.filterFor(req)) })
		t.storeQueries++
		t.storeRows += len(obs)
		_, dt = t.timed("enforce.apply", root, 1, func() { _, _ = enforce.ApplyDecision(dec, obs, t.transf) })
		enforceTime += dt
	}
	t.encode(root, &httpapi.ResponseDTO{}, body)
	return enforceTime
}

func (t *tracer) replayOccupancy(root int, o *op, body []byte) (enforceTime time.Duration) {
	var req enforce.Request
	t.timed("httpapi.decode", root, 1, func() {
		var dto httpapi.RequestDTO
		_ = json.Unmarshal(o.body, &dto)
		req, _ = httpapi.RequestFromDTO(dto)
	})
	var resp httpapi.ResponseDTO
	defer func() { t.encode(root, &resp, body) }()
	if json.Unmarshal(body, &resp) == nil && resp.Trace != nil {
		for _, s := range resp.Trace.Stages {
			if s.Name == "cache" {
				return 0 // the answer cache served it: no layer below ran
			}
		}
	}
	col := t.n.dep.BMS.Columnar()
	f := t.filterFor(req)
	var obs []sensor.Observation
	var cells []sensor.Observation
	served := false
	t.timed("colstore.rollup", root, 1, func() {
		entries, _, ok := col.OccupancyRollup(f.From, f.To)
		served = ok
		inScope := make(map[string]bool, len(f.SpaceIDs))
		for _, id := range f.SpaceIDs {
			inScope[id] = true
		}
		for _, c := range entries {
			if c.UserID == "" || c.Kind != f.Kind || !inScope[c.SpaceID] {
				continue
			}
			cells = append(cells, sensor.Observation{Seq: c.MinSeq, Kind: c.Kind, Time: c.Minute, SpaceID: c.SpaceID, UserID: c.UserID})
		}
	})
	obs = cells
	if !served {
		t.timed("obstore.query", root, 1, func() { obs = col.Query(f) })
		t.storeQueries++
		t.storeRows += len(obs)
	}
	bySubject := make(map[string][]sensor.Observation)
	for _, ob := range obs {
		if ob.UserID != "" {
			bySubject[ob.UserID] = append(bySubject[ob.UserID], ob)
		}
	}
	subjects := make([]string, 0, len(bySubject))
	for s := range bySubject {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	items := make([]enforce.BatchItem, len(subjects))
	for i, s := range subjects {
		sub := req
		sub.SubjectID = s
		items[i] = enforce.BatchItem{Req: sub, Groups: t.groups(s)}
	}
	var decisions []enforce.Decision
	_, dt := t.timed("enforce.decide", root, len(items), func() {
		decisions = enforce.DecideBatch(t.engine, items, enforce.BatchOptions{})
	})
	enforceTime += dt
	k := o.k
	var released []sensor.Observation
	var apply coalesced
	for i, d := range decisions {
		if !d.Allowed {
			continue
		}
		k = max(k, d.Effective.MinAggregationK)
		apply.time(func() {
			out, _ := enforce.ApplyDecision(d, bySubject[subjects[i]], t.transf)
			released = append(released, out...)
		})
	}
	enforceTime += t.flush("enforce.apply", root, &apply)
	t.timed("privacy.kanon", root, 1, func() {
		privacy.KAnonymousCounts(released, k,
			func(o sensor.Observation) string { return o.SpaceID },
			func(o sensor.Observation) string { return o.UserID })
	})
	return enforceTime
}

func (t *tracer) replayQuery(root int, o *op, body []byte) (enforceTime time.Duration) {
	var dto httpapi.QueryRequestDTO
	t.timed("httpapi.decode", root, 1, func() { _ = json.Unmarshal(o.body, &dto) })
	requester := query.Requester{ServiceID: dto.ServiceID, Purpose: policy.Purpose(dto.Purpose), UserID: dto.UserID, MinK: dto.K}

	var stmt *query.SelectStmt
	var err error
	t.timed("query.parse", root, 1, func() { stmt, err = query.Parse(dto.SQL) })
	if err != nil {
		return 0
	}
	// The Env is the one core wires, over the node's own columnar tier
	// and the shadow engine, with every callback timed.
	col := t.n.dep.BMS.Columnar()
	var scan, decide, apply, rollup coalesced
	env := query.Env{
		Scan: func(f obstore.Filter) (obs []sensor.Observation) {
			scan.time(func() { obs = col.Query(f) })
			t.storeQueries++
			t.storeRows += len(obs)
			return obs
		},
		Subtree: t.subtree,
		Decide: func(req enforce.Request) (d enforce.Decision) {
			groups := t.groups(req.SubjectID)
			decide.time(func() { d = t.engine.Decide(req, groups) })
			return d
		},
		Apply: func(d enforce.Decision, ob sensor.Observation) (out sensor.Observation, ok bool, err error) {
			apply.time(func() { out, ok, err = enforce.ApplyDecisionOne(d, ob, t.transf) })
			return out, ok, err
		},
		Now: t.n.clock.Now,
		Rollup: func(req query.RollupRequest) (out []query.RollupEntry, ok bool) {
			rollup.time(func() {
				cs, served := col.RollupFor(req.Filter, req.NeedSensor, req.NeedValue)
				ok = served
				out = make([]query.RollupEntry, len(cs))
				for i, c := range cs {
					out[i] = query.RollupEntry{Bucket: c.Bucket, SensorID: c.SensorID, Kind: c.Kind, SpaceID: c.SpaceID,
						UserID: c.UserID, Count: c.Count, Sum: c.Sum, Min: c.Min, Max: c.Max, MinSeq: c.MinSeq}
				}
			})
			if !ok {
				return nil, false
			}
			return out, true
		},
	}
	var plan *query.Plan
	t.timed("query.compile", root, 1, func() { plan, err = query.Compile(stmt, env, requester) })
	if err != nil {
		return 0
	}
	var res *query.Result
	exec, _ := t.timed("query.execute", root, 1, func() { res, err = plan.Execute() })
	t.flush("obstore.query", exec, &scan)
	t.flush("colstore.rollup", exec, &rollup)
	enforceTime = t.flush("enforce.decide", exec, &decide) + t.flush("enforce.apply", exec, &apply)
	if err == nil && t.recording {
		t.queries++
		if res.Stats.UsedRollup {
			t.rollupServed++
		}
	}
	t.encode(root, &httpapi.QueryResultDTO{}, body)
	return enforceTime
}

func (t *tracer) replayIngest(root int, o *op, body []byte) {
	var batch []sensor.Observation
	t.timed("httpapi.decode", root, 1, func() {
		var dtos []httpapi.ObservationDTO
		_ = json.Unmarshal(o.body, &dtos)
		batch = make([]sensor.Observation, len(dtos))
		for i, d := range dtos {
			batch[i] = httpapi.ObservationFromDTO(d)
		}
	})
	// The capture pipeline's attribution, so the shadow store indexes
	// what the node's store does.
	for i := range batch {
		ob := &batch[i]
		if s, ok := t.n.dep.BMS.Sensors().Get(ob.SensorID); ok && ob.SpaceID == "" && !s.Mobile {
			ob.SpaceID = s.SpaceID
		}
		if ob.DeviceMAC != "" && ob.UserID == "" {
			if u, ok := t.n.dep.Users.LookupMAC(ob.DeviceMAC); ok {
				ob.UserID = u.ID
			}
		}
	}
	before, _ := t.storeReg.LookupValue("tippers_wal_appended_bytes_total", nil)
	appendSpan, _ := t.timed("obstore.append", root, len(batch), func() {
		for _, ob := range batch {
			_, _ = t.store.Append(ob)
		}
	})
	after, _ := t.storeReg.LookupValue("tippers_wal_appended_bytes_total", nil)
	if len(batch) > 0 {
		// The store's WAL share, measured on a bare log with records
		// of the size the store just framed.
		const frameOverhead = 16
		payload := make([]byte, max(int(after-before)/len(batch)-frameOverhead, 1))
		t.timed("wal.append", appendSpan, len(batch), func() {
			for range batch {
				t.logSeq++
				_ = t.log.Append(t.logSeq, payload)
			}
		})
	}
	var ack struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error,omitempty"`
	}
	t.encode(root, &ack, body)
}

func (t *tracer) replayPreference(root int, o *op, body []byte) {
	if !t.recording {
		// Setup installs hundreds of rules; only mirror them.
		if o.kind == opPrefPut {
			_ = t.engine.AddPreference(o.pref)
			t.prefs[o.pref.ID] = o.pref
		} else {
			t.engine.RemovePreference(o.prefID)
			delete(t.prefs, o.prefID)
		}
		return
	}
	if o.kind == opPrefPut {
		var p policy.Preference
		t.timed("httpapi.decode", root, 1, func() {
			var dto httpapi.PreferenceDTO
			_ = json.Unmarshal(o.body, &dto)
			p, _ = httpapi.PreferenceFromDTO(dto)
		})
		t.timed("enforce.mutate", root, 1, func() { _ = t.engine.AddPreference(p) })
		t.prefs[p.ID] = p
	} else {
		t.timed("enforce.mutate", root, 1, func() { t.engine.RemovePreference(o.prefID) })
		delete(t.prefs, o.prefID)
	}
	prefs := make([]policy.Preference, 0, len(t.prefs))
	for _, p := range t.prefs {
		prefs = append(prefs, p)
	}
	t.timed("reasoner.detect", root, 1, func() { t.conflicts = len(t.reason.Detect(t.policies, prefs)) })
	if o.kind == opPrefPut {
		t.encode(root, &httpapi.PreferenceDTO{}, body)
	}
}

// finish closes the shadows, times a replay of the bare WAL the run
// wrote, and removes the scratch directory.
func (t *tracer) finish() {
	t.recording, t.op = true, -1
	_ = t.store.Close()
	_ = t.log.Close()
	t.timed("wal.replay", 0, int(t.logSeq), func() {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(t.dir, "wal"), SyncInterval: walSync, Logger: quietLogger})
		if err != nil {
			return
		}
		_ = l.Replay(0, func(uint64, []byte) error { return nil })
		_ = l.Close()
	})
	_ = os.RemoveAll(t.dir)
}
