// Package core implements TIPPERS, the paper's privacy-aware building
// management system (Figure 1): the Sensor Manager (capture-time
// enforcement and attribution), Policy Manager (building policies,
// actuation, retention), User Preference Manager (preferences,
// conflict detection, notifications), and Request Manager (query-time
// enforcement for services).
package core

import (
	"cmp"
	"crypto/rand"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/colstore"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/privacy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/query"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
	"github.com/tippers/tippers/internal/stream"
	"github.com/tippers/tippers/internal/telemetry"
	"github.com/tippers/tippers/internal/wal"
)

// Config wires a BMS. Zero-value collaborators are constructed
// automatically where possible.
type Config struct {
	// Spaces is the building's spatial model. Required.
	Spaces *spatial.Model
	// Users is the inhabitant directory. Required.
	Users *profile.Directory
	// Sensors is the deployed-sensor registry. Required.
	Sensors *sensor.Registry
	// Services is the service registry; nil creates an empty one.
	Services *service.Registry
	// Store is the observation store the BMS ingests into; nil creates
	// a fresh in-memory store. Supply one opened with
	// obstore.OpenDurable for write-ahead-logged persistence — the BMS
	// takes ownership and closes it on Close.
	Store *obstore.Store
	// Engine is the query-time enforcement engine; nil selects
	// Compiled (rules compiled to an indexed decision structure, plus
	// a decision memo).
	Engine enforce.Engine
	// DefaultAllow is the decision when no preference matches
	// (see enforce.Config).
	DefaultAllow bool
	// GroupDefaults are per-group default rules applied when a
	// subject has no personal preference (see enforce.GroupDefault).
	// Ignored when a custom Engine is supplied.
	GroupDefaults []enforce.GroupDefault
	// PseudonymKey keys MAC pseudonymization and Laplace noise, so a
	// row is released with the same noise by every node that shares it,
	// across restarts. nil means the node's own key: a durable Store's
	// <dir>/node.key, made on the first open and read on every later
	// one, or a random key per process for a store without a directory.
	PseudonymKey []byte
	// Clock overrides time.Now for tests and simulation.
	Clock func() time.Time
	// Metrics is the telemetry registry pipeline counters, latency
	// histograms, and collaborator metrics register on; nil creates a
	// private registry (reachable via BMS.Metrics).
	Metrics *telemetry.Registry
	// Tracer records sampled pipeline spans (ingest, enforcement
	// stages, store/WAL, stream delivery). nil disables tracing — the
	// span call sites then cost one context lookup each.
	Tracer *telemetry.Tracer
	// TraceBuffer caps the decision-trace ring buffer (default 256).
	TraceBuffer int
	// StreamBuffer is the default per-subscription ring capacity for
	// live streams (default 256).
	StreamBuffer int
	// StreamPolicy is the default backpressure policy for live
	// streams (default stream.DropOldest).
	StreamPolicy stream.Backpressure
	// ColumnarDir is the directory the columnar tier — the store's cold
	// tier: sealed segments behind the compaction watermark — persists
	// into. Empty means <store dir>/colstore for
	// a durable Store and memory for an in-memory one, so the tier is
	// always at least as durable as the rows it takes over.
	ColumnarDir string
}

// Stats counts pipeline outcomes for the experiments.
type Stats struct {
	Ingested          uint64
	DroppedDisabled   uint64 // sensor disabled at capture time
	DroppedUnlogged   uint64 // logging turned off (e.g. wifi opt-out)
	Pseudonymized     uint64
	RequestsDecided   uint64
	RequestsDenied    uint64
	NotificationsSent uint64
}

// BMS is one TIPPERS node.
type BMS struct {
	cfg      Config
	store    *obstore.Store
	engine   enforce.Engine
	services *service.Registry
	reason   *reasoner.Reasoner
	transf   *privacy.Transformer
	pseud    *privacy.Pseudonymizer
	clock    func() time.Time

	metrics *telemetry.Registry
	met     *coreMetrics
	tracer  *telemetry.Tracer
	traces  *traceRing
	streams *stream.Hub

	// Rule state, written only inside mutateRules, together with the
	// engine and, for preferences, the rule log (nil for an in-memory
	// store; see rulelog.go). Policies and each owner's preferences are
	// kept sorted by ID; conflicts always equals a full reasoner.Detect
	// over the two, maintained by delta.
	mu        sync.RWMutex
	policies  []policy.BuildingPolicy
	prefs     map[string][]policy.Preference // owner → their preferences
	prefOwner map[string]string              // preference ID → owner
	conflicts map[conflictKey]reasoner.Conflict
	inbox     map[string][]enforce.Notification
	rules     *ruleLog

	// colstore is the columnar tier: sealed segments behind the row
	// store's watermark.
	colstore *colstore.Store
	occCache occupancyCache
	qenv     query.Env
	// plans compiles each statement shape /v1/query is sent once; it
	// holds no literal, so erasure has nothing to drop from it.
	plans query.PlanCache

	compactStop chan struct{}
	compactDone chan struct{}
}

// New constructs a BMS.
func New(cfg Config) (*BMS, error) {
	if cfg.Spaces == nil || cfg.Users == nil || cfg.Sensors == nil {
		return nil, errors.New("core: Spaces, Users, and Sensors are required")
	}
	if cfg.Services == nil {
		cfg.Services = service.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	for _, d := range cfg.GroupDefaults {
		if err := d.Check(); err != nil {
			return nil, err
		}
	}
	engine := cfg.Engine
	if engine == nil {
		engine = enforce.NewCompiled(enforce.Config{
			Spaces:        cfg.Spaces,
			Services:      cfg.Services,
			DefaultAllow:  cfg.DefaultAllow,
			GroupDefaults: cfg.GroupDefaults,
		})
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	store := cfg.Store
	if store == nil {
		store = obstore.New()
	}
	key := cfg.PseudonymKey
	if key == nil {
		var err error
		if key, err = nodeKey(store.Dir()); err != nil {
			return nil, err
		}
	}
	store.SetClock(cfg.Clock) // retention runs on the node's clock
	if ec, ok := engine.(interface{ SetClock(func() time.Time) }); ok {
		ec.SetClock(cfg.Clock) // so does the decision memo's lifetime
	}
	b := &BMS{
		cfg:       cfg,
		store:     store,
		engine:    engine,
		services:  cfg.Services,
		transf:    privacy.NewTransformer(cfg.Spaces, 0, key),
		pseud:     privacy.NewPseudonymizer(key),
		clock:     cfg.Clock,
		metrics:   reg,
		tracer:    cfg.Tracer,
		met:       newCoreMetrics(reg, enforce.EngineName(engine)),
		traces:    newTraceRing(cfg.TraceBuffer),
		prefs:     make(map[string][]policy.Preference),
		prefOwner: make(map[string]string),
		conflicts: make(map[conflictKey]reasoner.Conflict),
		inbox:     make(map[string][]enforce.Notification),
	}
	b.reason = reasoner.NewWithGroups(cfg.Spaces, b.subjectGroups)
	b.qenv = b.queryEnv()
	// A durable store's directory holds the preferences too: replay them
	// before anything can decide a request, and fold them whenever the
	// store checkpoints.
	if dir := store.Dir(); dir != "" {
		rules, err := openRuleLog(dir, func(p policy.Preference) error {
			_, err := b.installPreference(p)
			return err
		}, b.uninstallPreference)
		if err != nil {
			return nil, err
		}
		b.rules = rules
		store.SetCheckpointHook(b.foldRules)
	}
	fail := func(err error) (*BMS, error) {
		b.rules.close()
		return nil, err
	}
	// The columnar tier is the row store's cold tier: closed buckets
	// compact into immutable segments the store then evicts. Every read
	// of the store covers both (segments behind the watermark, the hot
	// log ahead).
	colDir := cfg.ColumnarDir
	if colDir == "" && store.Dir() != "" {
		colDir = filepath.Join(store.Dir(), "colstore")
	}
	cs, err := colstore.Open(colstore.Config{Dir: colDir, Clock: cfg.Clock})
	if err != nil {
		return fail(fmt.Errorf("core: opening columnar tier: %w", err))
	}
	if err := cs.AttachStore(store); err != nil {
		return fail(fmt.Errorf("core: attaching columnar tier: %w", err))
	}
	cs.RegisterMetrics(reg)
	b.colstore = cs
	// Collaborators expose their internals on the same registry; an
	// engine that can report (Compiled) joins in.
	b.store.RegisterMetrics(reg)
	// The store forwards the tracer to its WAL so group-commit fsync
	// batches show up as spans.
	b.store.SetTracer(cfg.Tracer)
	cfg.Tracer.RegisterMetrics(reg)
	b.reason.RegisterMetrics(reg)
	if mr, ok := engine.(interface {
		RegisterMetrics(*telemetry.Registry)
	}); ok {
		mr.RegisterMetrics(reg)
	}
	reg.GaugeFunc("tippers_enforce_epoch",
		"Rule mutations the enforcement engine has applied; every decision-derived cache validates against it.",
		func() float64 { return float64(engine.Epoch()) })
	// The stream hub reads new rows from the store and decides per
	// subscriber per event through b.decide like every other path; it
	// keeps no decisions of its own, so rule mutations have nothing to
	// flush here.
	hub, err := stream.NewHub(stream.Config{
		Store:         b.store,
		Decide:        b.decide,
		Apply:         b.apply,
		Filter:        b.filterFor,
		Metrics:       reg,
		Tracer:        cfg.Tracer,
		DefaultBuffer: cfg.StreamBuffer,
		DefaultPolicy: cfg.StreamPolicy,
	})
	if err != nil {
		return fail(err)
	}
	b.streams = hub
	return b, nil
}

// nodeKeyFile is a durable node's own key, in its store's directory.
const nodeKeyFile = "node.key"

// nodeKey returns the key of a node configured without one: random per
// process without a directory, else dir/node.key, written on the first
// open and read on every later one, so a restarted node pseudonymizes
// and noises as before. A key file that is unreadable or not 32 bytes
// refuses the open: a new key would change every pseudonym and noised
// value the node releases. No key is public, since whoever held it
// could link pseudonyms to MACs and subtract the noise.
func nodeKey(dir string) ([]byte, error) {
	key := make([]byte, 32)
	if dir == "" {
		rand.Read(key) // never fails
		return key, nil
	}
	path := filepath.Join(dir, nodeKeyFile)
	kept, err := os.ReadFile(path)
	switch {
	case err == nil && len(kept) == len(key):
		return kept, nil
	case err == nil:
		return nil, fmt.Errorf("core: node key %s holds %d bytes, want %d; refusing to open under another key", path, len(kept), len(key))
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("core: reading node key: %w; refusing to open under another key", err)
	}
	rand.Read(key)
	if err := writeKeyFile(path, key); err != nil {
		return nil, fmt.Errorf("core: writing node key: %w", err)
	}
	return key, nil
}

// writeKeyFile makes path hold key durably: a temp file (mode 0600) is
// written, fsynced and renamed to path, and the directory fsynced.
func writeKeyFile(path string, key []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, nodeKeyFile+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(key)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return wal.SyncDir(dir)
}

// Store exposes the observation store (read-mostly; examples and
// experiments inspect it).
func (b *BMS) Store() *obstore.Store { return b.store }

// Spaces returns the spatial model.
func (b *BMS) Spaces() *spatial.Model { return b.cfg.Spaces }

// Users returns the inhabitant directory.
func (b *BMS) Users() *profile.Directory { return b.cfg.Users }

// Sensors returns the sensor registry.
func (b *BMS) Sensors() *sensor.Registry { return b.cfg.Sensors }

// Services returns the service registry.
func (b *BMS) Services() *service.Registry { return b.services }

// Engine returns the enforcement engine.
func (b *BMS) Engine() enforce.Engine { return b.engine }

// Streams returns the live-stream hub: policy-enforced continuous
// queries with resume cursors (see internal/stream), the one way a
// service subscribes.
func (b *BMS) Streams() *stream.Hub { return b.streams }

// Columnar returns the columnar storage tier.
func (b *BMS) Columnar() *colstore.Store { return b.colstore }

// Tracer returns the pipeline tracer (nil when tracing is disabled).
func (b *BMS) Tracer() *telemetry.Tracer { return b.tracer }

// Ready reports whether the node can serve: the observation store is
// open (its WAL, when durable, still writable) and the stream hub is
// accepting subscriptions. This is the /v1/readyz probe.
func (b *BMS) Ready() error {
	if err := b.store.Ready(); err != nil {
		return err
	}
	if !b.streams.Accepting() {
		return errors.New("core: stream hub closed")
	}
	return nil
}

// Stats returns a snapshot of pipeline counters. The struct and its
// meaning are unchanged from the pre-telemetry era; the values are
// now read off the lock-free registry counters.
func (b *BMS) Stats() Stats {
	return Stats{
		Ingested:          b.met.ingested.Value(),
		DroppedDisabled:   b.met.droppedDisabled.Value(),
		DroppedUnlogged:   b.met.droppedUnlogged.Value(),
		Pseudonymized:     b.met.pseudonymized.Value(),
		RequestsDecided:   b.met.requestsDecided.Value(),
		RequestsDenied:    b.met.requestsDenied.Value(),
		NotificationsSent: b.met.notificationsSent.Value(),
	}
}

// Ingest is the capture pipeline (Figure 1 steps 2–3): a sensor
// reading enters, capture-time enforcement applies the sensor's
// current privacy settings, the reading is attributed to a user via
// device MAC, and stored, which wakes the live streams.
func (b *BMS) Ingest(o sensor.Observation) error {
	t0 := time.Now()
	defer b.met.ingestSeconds.ObserveSince(t0)
	s, ok := b.cfg.Sensors.Get(o.SensorID)
	if !ok {
		return fmt.Errorf("core: observation from unregistered sensor %q", o.SensorID)
	}
	if !s.Enabled() {
		b.met.droppedDisabled.Inc()
		return nil
	}
	if o.Kind == sensor.ObsWiFiConnect && !s.BoolSetting("log_connections") {
		// The Figure 4 "No location sensing" opt-out lands here: the
		// AP keeps serving traffic but logs nothing.
		b.met.droppedUnlogged.Inc()
		return nil
	}
	if o.SpaceID == "" && !s.Mobile {
		o.SpaceID = s.SpaceID
	}
	if o.Time.IsZero() {
		o.Time = b.clock()
	}
	// Attribution: resolve the device MAC to its owner — unless the
	// sensor pseudonymizes at capture, in which case the reading is
	// unlinkable by design.
	if o.DeviceMAC != "" {
		if s.BoolSetting("hash_mac") {
			o = b.pseud.PseudonymizeObservation(o)
			b.met.pseudonymized.Inc()
		} else if o.UserID == "" {
			if u, ok := b.cfg.Users.LookupMAC(o.DeviceMAC); ok {
				o.UserID = u.ID
			}
		}
	}
	return b.appendAndPublish(o)
}

// appendAndPublish is the one way an observation enters the store.
// After the append it wakes the stream hub, which reads the new row
// back from the store in seq order; the store's append lock is what
// orders concurrent writers.
func (b *BMS) appendAndPublish(o sensor.Observation) error {
	if _, err := b.store.Append(o); err != nil {
		return err
	}
	b.streams.Wake()
	b.met.ingested.Inc()
	return nil
}

// RegisterPolicy installs a building policy (Figure 1 step 1): the
// rule enters the enforcement engine, its sensor settings are
// actuated across the scoped sensors, its retention period is
// installed in the store (a collection policy without an observation
// kind sets its default), and conflicts with existing preferences are
// detected and resolved.
func (b *BMS) RegisterPolicy(p policy.BuildingPolicy) error {
	if err := p.Check(); err != nil {
		return err
	}
	if err := b.resolve(p.Scope); err != nil {
		return fmt.Errorf("core: policy %s: %w", p.ID, err)
	}
	err := b.mutateRules(func() ([]reasoner.Conflict, error) {
		at, dup := b.policyIndex(p.ID)
		if dup {
			return nil, fmt.Errorf("core: duplicate policy %q", p.ID)
		}
		if err := b.engine.AddPolicy(p); err != nil {
			return nil, err
		}
		b.policies = slices.Insert(b.policies, at, p)
		// No key can name a policy that was not installed: all fresh.
		delta := b.reason.DetectPolicy(p, b.prefs)
		for _, c := range delta {
			b.conflicts[keyOf(c)] = c
		}
		return delta, nil
	})
	if err != nil {
		return err
	}
	// Actuation and the retention rule stay outside the rule lock.
	if len(p.Settings) > 0 {
		if err := b.actuateScope(p.Scope, p.Settings); err != nil {
			return fmt.Errorf("core: actuating policy %s: %w", p.ID, err)
		}
	}
	if p.Kind == policy.KindCollection && !p.Retention.IsZero() {
		b.store.AddRetentionRule(obstore.RetentionRule{Kind: p.Scope.ObsKind, TTL: p.Retention})
	}
	return nil
}

// actuateScope applies settings to every registered sensor the scope
// covers (type + spatial subtree).
func (b *BMS) actuateScope(sc policy.Scope, settings map[string]string) error {
	var targets []*sensor.Sensor
	if sc.SensorType != 0 {
		targets = b.cfg.Sensors.ByType(sc.SensorType)
	} else {
		targets = b.cfg.Sensors.All()
	}
	for _, s := range targets {
		if sc.SpaceID != "" {
			in, err := b.cfg.Spaces.Contained(s.SpaceID, sc.SpaceID)
			if err != nil || !in {
				continue
			}
		}
		if err := b.cfg.Sensors.Actuate(s.ID, settings); err != nil {
			return err
		}
	}
	return nil
}

// ErrPreferenceOwned refuses a preference write whose ID names another
// user's installed preference.
var ErrPreferenceOwned = errors.New("core: preference ID belongs to another user")

// SetPreference installs (or replaces) a user preference (Figure 1
// step 8: the IoTA communicates the user's settings). A preference that
// does not resolve (see resolve) or whose ID another user's preference
// holds (ErrPreferenceOwned) is refused, and nothing changes. Conflicts
// with building policies are detected; override resolutions generate
// notifications delivered to the user's inbox and the live streams.
// On a durable store the preference is in the rule log before it is
// enforced; an error wrapping ErrRuleLog means it could not be logged,
// and nothing changed.
func (b *BMS) SetPreference(p policy.Preference) error {
	if err := p.Check(); err != nil {
		return err
	}
	if _, ok := b.cfg.Users.Lookup(p.UserID); !ok {
		return fmt.Errorf("core: preference for unknown user %q", p.UserID)
	}
	if err := b.resolve(p.Scope); err != nil {
		return fmt.Errorf("core: preference %s: %w", p.ID, err)
	}
	return b.mutateRules(func() ([]reasoner.Conflict, error) {
		if owner, ok := b.prefOwner[p.ID]; ok && owner != p.UserID {
			return nil, fmt.Errorf("%w: %q", ErrPreferenceOwned, p.ID)
		}
		if err := b.rules.set(&p); err != nil {
			return nil, err
		}
		// An engine refuses only what p.Check refuses, so what the log
		// now holds is installed.
		return b.installPreference(p)
	})
}

// resolve refuses a scope the node cannot enforce as written, naming
// the field: its space must be in the spatial model, its sensor type
// defined, its kind one the sensor package declares (the inferred
// occupancy included), each purpose in the taxonomy, its service
// registered and its window well-formed. It is the write path's one
// check for preferences and policies alike, and allocates nothing for
// a scope that resolves. Replaying the rule log does not call it: a
// rule once acknowledged is installed as logged.
func (b *BMS) resolve(sc policy.Scope) error {
	if sc.SpaceID != "" {
		if _, ok := b.cfg.Spaces.Lookup(sc.SpaceID); !ok {
			return fmt.Errorf("scope.space_id %q is not a space of this building", sc.SpaceID)
		}
	}
	if sc.SensorType != 0 && !sc.SensorType.Valid() {
		return fmt.Errorf("scope.sensor_type %d is not a sensor type", int(sc.SensorType))
	}
	if sc.ObsKind != "" && !sc.ObsKind.Declared() {
		return fmt.Errorf("scope.obs_kind %q is not an observation kind", sc.ObsKind)
	}
	for _, p := range sc.Purposes {
		if !p.Defined() {
			return fmt.Errorf("scope.purposes: %q is not a purpose", p)
		}
	}
	if sc.ServiceID != "" {
		if _, ok := b.services.Get(sc.ServiceID); !ok {
			return fmt.Errorf("scope.service_id %q is not a registered service", sc.ServiceID)
		}
	}
	return sc.Window.Check()
}

// RemovePreference uninstalls a preference by ID and reports whether
// it was installed. On a durable store the removal is in the rule log
// before it is enforced; an error wrapping ErrRuleLog means it could
// not be logged, and the preference is still installed.
func (b *BMS) RemovePreference(id string) (bool, error) {
	removed := false
	err := b.mutateRules(func() ([]reasoner.Conflict, error) {
		if _, ok := b.prefOwner[id]; !ok {
			return nil, nil
		}
		if err := b.rules.remove(id); err != nil {
			return nil, err
		}
		removed = true
		b.uninstallPreference(id)
		return nil, nil
	})
	return removed, err
}

// installPreference puts p in the engine and the rule state and returns
// the conflicts that are new. The caller holds b.mu, or is New
// replaying the rule log.
func (b *BMS) installPreference(p policy.Preference) ([]reasoner.Conflict, error) {
	if err := b.engine.AddPreference(p); err != nil {
		return nil, err
	}
	return b.replacePreference(p.ID, &p), nil
}

// uninstallPreference takes preference id out of the engine and the
// rule state. A removal frees no conflict, so it returns nothing. The
// caller holds b.mu, or is New replaying the rule log.
func (b *BMS) uninstallPreference(id string) {
	if b.engine.RemovePreference(id) {
		b.replacePreference(id, nil)
	}
}

// foldRules folds the rule log into one snapshot of the live
// preferences, unless nothing was logged since the last fold. It is the
// store's checkpoint hook and ForgetUser's last step.
func (b *BMS) foldRules() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.rules == nil || b.rules.tail == 0 {
		return nil
	}
	return b.rules.fold(b.prefs)
}

// mutateRules is the one seam a rule mutation passes through: apply
// updates the enforcement engine, the rule state and b.conflicts under
// b.mu and returns the conflicts that are new, whose notifications are
// folded into the affected users' inboxes in the same critical
// section. Because the engine and the listed rules change under the
// lock that orders the rule writes, the engine enforces what
// Preferences lists, the rule log holds the mutations in the order they
// were applied, and the conflict set follows the mutation that happened
// last, not the pass that finished last. An error from apply must leave
// all of them unchanged. Once the log's tail outgrows its snapshot, the
// mutation that made it so folds it, still under the lock.
func (b *BMS) mutateRules(apply func() (fresh []reasoner.Conflict, err error)) error {
	t0 := time.Now()
	b.mu.Lock()
	fresh, err := apply()
	if err == nil && b.rules.due() {
		// The mutation is durable already; a fold that fails is tried
		// again by the next one.
		if ferr := b.rules.fold(b.prefs); ferr != nil {
			fmt.Fprintf(os.Stderr, "core: %v\n", ferr)
		}
	}
	var entered []enforce.Notification
	for _, c := range fresh {
		if user := c.Resolution.NotifyUserID; user != "" {
			entered = b.notifyLocked(entered, user, c.PolicyID, c.PreferenceID, c.Resolution.Explanation)
		}
	}
	b.mu.Unlock()
	b.met.detectSeconds.ObserveSince(t0)
	for _, c := range fresh {
		b.streams.PublishConflict(c)
	}
	for _, n := range entered {
		b.streams.PublishNotification(n)
	}
	return err
}

// replacePreference swaps the installed version of preference id, if
// any, for p (nil uninstalls) and brings b.conflicts up to date by
// delta: only the policies and the owners' other preferences are
// consulted. p's owner differs from the old version's only when New
// replays a log written before SetPreference refused such writes. It returns the conflicts whose key was absent before the
// mutation. The caller holds b.mu.
func (b *BMS) replacePreference(id string, p *policy.Preference) (fresh []reasoner.Conflict) {
	oldOwner, had := b.prefOwner[id]
	if had {
		owned := b.prefs[oldOwner]
		at, _ := slices.BinarySearchFunc(owned, id, preferenceIDCmp)
		b.prefs[oldOwner] = slices.Delete(owned, at, at+1)
	}
	var delta []reasoner.Conflict
	if p != nil {
		owned := b.prefs[p.UserID]
		at, _ := slices.BinarySearchFunc(owned, id, preferenceIDCmp)
		owned = slices.Insert(owned, at, *p)
		b.prefs[p.UserID], b.prefOwner[id] = owned, p.UserID
		delta = b.reason.DetectPreference(*p, b.policies, owned)
		// Judged before the old version's keys go: a replacement that
		// still conflicts with the same rule is not news.
		for _, c := range delta {
			if _, known := b.conflicts[keyOf(c)]; !known {
				fresh = append(fresh, c)
			}
		}
	} else {
		delete(b.prefOwner, id)
	}
	if had {
		// Every key the old version could have produced.
		for _, bp := range b.policies {
			delete(b.conflicts, conflictKey{Kind: reasoner.PolicyVsPreference, PolicyID: bp.ID, PreferenceID: id})
		}
		for _, o := range b.prefs[oldOwner] {
			if o.ID != id {
				lo, hi := min(id, o.ID), max(id, o.ID)
				delete(b.conflicts, conflictKey{Kind: reasoner.PreferenceVsPreference, PreferenceID: lo, OtherPreferenceID: hi})
			}
		}
		if len(b.prefs[oldOwner]) == 0 {
			delete(b.prefs, oldOwner)
		}
	}
	for _, c := range delta {
		b.conflicts[keyOf(c)] = c
	}
	return fresh
}

// conflictKey identifies a conflict by the rules involved, whatever
// its resolution. Preference pairs name the lower ID first.
type conflictKey struct {
	Kind                                      reasoner.ConflictKind
	PolicyID, PreferenceID, OtherPreferenceID string
}

func keyOf(c reasoner.Conflict) conflictKey {
	return conflictKey{c.Kind, c.PolicyID, c.PreferenceID, c.OtherPreferenceID}
}

func preferenceIDCmp(p policy.Preference, id string) int { return cmp.Compare(p.ID, id) }

// policyIndex finds a policy's position in b.policies, or where it
// would be inserted. The caller holds b.mu.
func (b *BMS) policyIndex(id string) (int, bool) {
	return slices.BinarySearchFunc(b.policies, id,
		func(p policy.BuildingPolicy, id string) int { return cmp.Compare(p.ID, id) })
}

// Conflicts returns the current resolved conflicts in the order a full
// reasoner.Detect reports them (policy, preference, other preference).
func (b *BMS) Conflicts() []reasoner.Conflict {
	b.mu.RLock()
	out := make([]reasoner.Conflict, 0, len(b.conflicts))
	for _, c := range b.conflicts {
		out = append(out, c)
	}
	b.mu.RUnlock()
	reasoner.SortConflicts(out)
	return out
}

// Policies returns the installed building policies sorted by ID.
func (b *BMS) Policies() []policy.BuildingPolicy {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return slices.Clone(b.policies)
}

// Preferences returns a user's installed preferences sorted by ID.
func (b *BMS) Preferences(userID string) []policy.Preference {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return slices.Clone(b.prefs[userID])
}

// ForgetUser erases a user's footprint: every observation attributed
// to them is deleted from the store, their preferences are uninstalled
// (and, on a durable store, folded out of the rule log on disk), and
// their notification inbox and the decision traces naming them are
// dropped. Data collected under
// safety-critical override policies (emergency response, security) is
// exempt — the building's non-negotiable retention obligations survive
// erasure requests, and the exemption is reported so the user can be
// told exactly what remains. The exempt rows stay in
// place under their seqs, so stream cursors that name them stay valid. Returns (deleted, retained) observation counts.
func (b *BMS) ForgetUser(userID string) (deleted, retained int, err error) {
	if _, ok := b.cfg.Users.Lookup(userID); !ok {
		return 0, 0, fmt.Errorf("core: unknown user %q", userID)
	}
	// Observations an override collection policy covers stay. The
	// purpose dimension is the policy's own; a collection scope matches
	// its stored data regardless of who asks.
	var overrideScopes []policy.Scope
	for _, p := range b.Policies() {
		if p.Override && p.Kind == policy.KindCollection {
			sc := p.Scope
			sc.Purposes = nil
			overrideScopes = append(overrideScopes, sc)
		}
	}
	groups := b.subjectGroups(userID)
	keep := func(o *sensor.Observation) bool {
		ctx := policy.Context{
			SubjectID:     userID,
			SubjectGroups: groups,
			SpaceID:       o.SpaceID,
			SensorType:    sensor.TypeForKind(o.Kind),
			ObsKind:       o.Kind,
			Time:          o.Time,
		}
		for _, sc := range overrideScopes {
			if sc.Matches(ctx, b.cfg.Spaces) {
				return true
			}
		}
		return false
	}
	deleted = b.store.DeleteUser(userID, keep)
	retained = b.store.Count(obstore.Filter{UserID: userID})

	for _, p := range b.Preferences(userID) {
		if _, err := b.RemovePreference(p.ID); err != nil {
			return deleted, retained, err
		}
	}
	b.mu.Lock()
	delete(b.inbox, userID)
	b.mu.Unlock()
	b.traces.forget(userID)
	// The rule log still holds the records that installed and removed
	// the preferences; the fold takes them off disk now, not at the next
	// checkpoint.
	if err := b.foldRules(); err != nil {
		return deleted, retained, err
	}
	return deleted, retained, nil
}

// FetchNotifications drains a user's notification inbox (their IoTA
// polls this; Figure 1 step 7).
func (b *BMS) FetchNotifications(userID string) []enforce.Notification {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.inbox[userID]
	delete(b.inbox, userID)
	return out
}

// notifyLocked folds one notification into userID's inbox, which holds
// one entry per (policy, preference) key: a key already there counts
// the repeat, so the inbox is bounded by the rules that can override
// the user, not by how often anyone reads. A key that enters gets msg,
// or when msg is "" the override text built from the rules' names, and
// is appended to entered for the caller to publish once b.mu is
// released. The caller holds b.mu.
func (b *BMS) notifyLocked(entered []enforce.Notification, userID, policyID, prefID, msg string) []enforce.Notification {
	b.met.notificationsSent.Inc()
	now := b.clock()
	inbox := b.inbox[userID]
	for i := range inbox {
		if n := &inbox[i]; n.PolicyID == policyID && n.PreferenceID == prefID {
			n.Count, n.Last = n.Count+1, now
			return entered
		}
	}
	if msg == "" {
		// A rule removed since the decision is named by its ID.
		policyName, prefName := policyID, prefID
		if at, ok := b.policyIndex(policyID); ok {
			policyName = b.policies[at].Name
		}
		owned := b.prefs[userID]
		if at, ok := slices.BinarySearchFunc(owned, prefID, preferenceIDCmp); ok {
			prefName = owned[at].Name
		}
		msg = fmt.Sprintf("Building policy %q (%s) overrode your preference %q for this request.",
			policyName, policyID, prefName)
	}
	n := enforce.Notification{UserID: userID, PolicyID: policyID, PreferenceID: prefID,
		Message: msg, Count: 1, First: now, Last: now}
	b.inbox[userID] = append(inbox, n)
	return append(entered, n)
}

// StartCompaction launches the columnar tier's background compactor:
// every interval, closed time buckets behind the row store's head are
// sealed into immutable segments, and rows retention has expired leave
// memory, the WAL and the segment files. Stop with StopCompaction.
func (b *BMS) StartCompaction(interval time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.compactStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	b.compactStop = stop
	b.compactDone = done
	go func() {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if _, err := b.colstore.CompactOnce(); err != nil {
					fmt.Fprintf(os.Stderr, "core: columnar compaction: %v\n", err)
				}
			}
		}
	}()
}

// StopCompaction stops the compaction daemon and waits for it to
// exit.
func (b *BMS) StopCompaction() {
	b.mu.Lock()
	stop, done := b.compactStop, b.compactDone
	b.compactStop, b.compactDone = nil, nil
	b.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Close shuts down the BMS: the compaction daemon stopped, stream hub
// drained, store and rule log closed. Every logged rule mutation was
// fsynced when it was made, so closing flushes nothing.
func (b *BMS) Close() {
	b.StopCompaction()
	b.streams.Close()
	if err := b.store.Close(); err != nil {
		// Nothing to do but say so: durable stores flush their WAL here.
		fmt.Fprintf(os.Stderr, "core: closing observation store: %v\n", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.rules.close(); err != nil {
		fmt.Fprintf(os.Stderr, "core: closing rule log: %v\n", err)
	}
}
