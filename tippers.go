// Package tippers is the public API of the privacy-aware smart
// building framework: a faithful, runnable implementation of
// Pappachan et al., "Towards Privacy-Aware Smart Buildings: Capturing,
// Communicating, and Enforcing Privacy Policies and Preferences"
// (ICDCS 2017).
//
// The framework has three components (the paper's Figure 1):
//
//   - A privacy-aware building management system (BMS, the paper's
//     TIPPERS): captures simulated sensor data, stores it under
//     retention rules, and enforces building policies and user
//     preferences at capture, storage, and query time.
//   - IoT Resource Registries (IRR): HTTP registries broadcasting
//     machine-readable policy documents (the paper's Figures 2–4).
//   - IoT Assistants (IoTA): per-user agents that discover
//     registries, selectively notify their user, learn preferences
//     from feedback, and configure privacy settings.
//
// Quick start:
//
//	dep, err := tippers.NewDeployment(tippers.DeploymentConfig{})
//	...
//	assistant, _ := dep.NewAssistant("u0001")
//	doc := dep.IRR.Document("dbh")
//	notices := assistant.ProcessDocument(doc)
//
// See examples/ for complete programs and DESIGN.md for the paper-to-
// package map.
package tippers

import (
	"fmt"
	"net/http"
	"time"

	"github.com/tippers/tippers/internal/core"
	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/httpapi"
	"github.com/tippers/tippers/internal/iota"
	"github.com/tippers/tippers/internal/irr"
	"github.com/tippers/tippers/internal/mud"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/sim"
	"github.com/tippers/tippers/internal/slo"
	"github.com/tippers/tippers/internal/spatial"
	"github.com/tippers/tippers/internal/stream"
	"github.com/tippers/tippers/internal/telemetry"
)

// Re-exported core types. The internal packages carry the full API;
// these aliases are the stable public surface.
type (
	// BMS is a privacy-aware building management system node.
	BMS = core.BMS
	// BMSConfig configures a BMS.
	BMSConfig = core.Config
	// Response is a request manager answer.
	Response = core.Response

	// BuildingPolicy is an enforceable building rule.
	BuildingPolicy = policy.BuildingPolicy
	// Preference is a user privacy preference.
	Preference = policy.Preference
	// Rule is a preference's decision.
	Rule = policy.Rule
	// Scope selects the flows a rule governs.
	Scope = policy.Scope
	// Purpose is a data-collection purpose.
	Purpose = policy.Purpose
	// Granularity is a location precision level.
	Granularity = policy.Granularity
	// ResourceDocument is the Figure-2-shape advertisement document.
	ResourceDocument = policy.ResourceDocument
	// Resource is one advertised data-collection practice.
	Resource = policy.Resource

	// Request is a service data request.
	Request = enforce.Request
	// GroupDefault is a per-group default rule.
	GroupDefault = enforce.GroupDefault
	// Decision is the enforcement outcome for one request/subject.
	Decision = enforce.Decision
	// Engine is a query-time enforcement engine.
	Engine = enforce.Engine

	// Assistant is a user's IoT Assistant.
	Assistant = iota.Assistant
	// AssistantConfig configures an Assistant.
	AssistantConfig = iota.Config
	// Notice is one surfaced IoTA notification.
	Notice = iota.Notice

	// IRRegistry is an IoT Resource Registry.
	IRRegistry = irr.Registry
	// IRRClient fetches documents from a remote IRR.
	IRRClient = irr.Client

	// Building is a generated building (spatial model + sensors).
	Building = sim.Building
	// BuildingSpec sizes a generated building.
	BuildingSpec = sim.BuildingSpec
	// Directory is the inhabitant registry.
	Directory = profile.Directory
	// User is one building inhabitant.
	User = profile.User
	// Service is a registered building service.
	Service = service.Service
	// Observation is one sensor reading.
	Observation = sensor.Observation
	// SpatialModel is the space hierarchy.
	SpatialModel = spatial.Model

	// ObservationStore is the BMS's indexed observation store (see
	// internal/obstore). Open one with OpenDurableStore for
	// write-ahead-logged persistence.
	ObservationStore = obstore.Store
	// DurableStoreConfig configures OpenDurableStore.
	DurableStoreConfig = obstore.DurableConfig

	// MetricsRegistry collects counters, gauges, and histograms and
	// serves them in Prometheus text form (see internal/telemetry).
	MetricsRegistry = telemetry.Registry
	// Tracer records sampled pipeline spans into a bounded ring (see
	// internal/telemetry). Pass one via DeploymentConfig.Tracer to
	// light up /v1/traces and traceparent propagation.
	Tracer = telemetry.Tracer
	// TracerOptions configures NewTracer.
	TracerOptions = telemetry.TracerOptions
	// DecisionTrace is the span-like record of one enforcement
	// decision (matched rules, stage timings).
	DecisionTrace = core.DecisionTrace

	// StreamHub fans live observations out to policy-enforced
	// subscriptions with resume cursors (see internal/stream; reach a
	// BMS's hub via BMS.Streams).
	StreamHub = stream.Hub
	// StreamSubscription is one consumer's view of a live stream.
	StreamSubscription = stream.Subscription
	// StreamSubscribeOptions configures StreamHub.Subscribe.
	StreamSubscribeOptions = stream.Options
	// StreamEvent is one delivered stream element.
	StreamEvent = stream.Event
	// Backpressure selects a full-ring policy for stream
	// subscriptions.
	Backpressure = stream.Backpressure

	// SLOSpec declares one service-level objective (see internal/slo).
	SLOSpec = slo.Spec
	// SLOEvaluator continuously checks SLOSpecs against the telemetry
	// registry; reach a deployment's via Deployment.SLO.
	SLOEvaluator = slo.Evaluator
	// SLOStatus is one SLO's current evaluation.
	SLOStatus = slo.Status
)

// DefaultSLOSpecs returns the stock tippersd SLO set over the given
// error-budget window (zero selects one hour).
var DefaultSLOSpecs = slo.DefaultTippersSpecs

// Backpressure policies for live streams.
const (
	StreamDropOldest = stream.DropOldest
	StreamBlock      = stream.Block
	StreamDisconnect = stream.Disconnect
)

// ParseBackpressure parses a backpressure policy name
// ("drop-oldest", "block", "disconnect").
var ParseBackpressure = stream.ParseBackpressure

// NewMetricsRegistry returns an empty telemetry registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewTracer returns a tracer sampling 1-in-opts.SampleOneIn root
// requests into a bounded in-memory span ring.
func NewTracer(opts TracerOptions) *Tracer { return telemetry.NewTracer(opts) }

// OpenDurableStore opens (or recovers) a write-ahead-logged
// observation store rooted at cfg.Dir: the checkpoint (a file of WAL
// frames, refused outright if damaged) is restored, committed WAL
// records are replayed on top of it, and a torn tail from a crash is
// truncated. Pass the result as DeploymentConfig.Store; the
// deployment closes it on Close. The store checkpoints itself at every
// commit of the deployment's columnar tier, which rewrites the
// checkpoint and truncates the log without whatever retention or
// erasure deleted since the last one; call its Checkpoint method at
// shutdown to do the same for the rows of the open bucket.
func OpenDurableStore(cfg DurableStoreConfig) (*ObservationStore, error) {
	return obstore.OpenDurable(cfg)
}

// Re-exported enumerations and constructors.
var (
	// DBH is the paper's Donald Bren Hall at full scale.
	DBH = sim.DBH
	// SmallDBH is a two-floor fragment for fast runs.
	SmallDBH = sim.SmallDBH

	// Policy1Comfort .. Policy4EventDisclosure are the paper's §III.A
	// example building policies.
	Policy1Comfort           = policy.Policy1Comfort
	Policy2EmergencyLocation = policy.Policy2EmergencyLocation
	Policy3MeetingRoomAccess = policy.Policy3MeetingRoomAccess
	Policy4EventDisclosure   = policy.Policy4EventDisclosure

	// Preference1OfficeOccupancy .. Preference4SmartMeeting are the
	// paper's §III.B example user preferences.
	Preference1OfficeOccupancy       = policy.Preference1OfficeOccupancy
	Preference2NoLocation            = policy.Preference2NoLocation
	Preference3ConciergeFineLocation = policy.Preference3ConciergeFineLocation
	Preference4SmartMeeting          = policy.Preference4SmartMeeting
	CoarseLocationPreference         = policy.CoarseLocationPreference

	// Figure2Document, Figure3Document, Figure4Settings reproduce the
	// paper's figures.
	Figure2Document = policy.Figure2Document
	Figure3Document = policy.Figure3Document
	Figure4Settings = policy.Figure4Settings

	// Concierge, SmartMeeting, FoodDelivery are the paper's services.
	Concierge    = service.Concierge
	SmartMeeting = service.SmartMeeting
	FoodDelivery = service.FoodDelivery
)

// Granularity levels.
const (
	GranNone     = policy.GranNone
	GranBuilding = policy.GranBuilding
	GranFloor    = policy.GranFloor
	GranRoom     = policy.GranRoom
	GranExact    = policy.GranExact
)

// Purposes.
const (
	PurposeEmergencyResponse = policy.PurposeEmergencyResponse
	PurposeSecurity          = policy.PurposeSecurity
	PurposeProvidingService  = policy.PurposeProvidingService
	PurposeComfort           = policy.PurposeComfort
	PurposeEnergyManagement  = policy.PurposeEnergyManagement
	PurposeLogging           = policy.PurposeLogging
	PurposeAnalytics         = policy.PurposeAnalytics
	PurposeMarketing         = policy.PurposeMarketing
)

// Actions.
const (
	ActionAllow = policy.ActionAllow
	ActionDeny  = policy.ActionDeny
	ActionLimit = policy.ActionLimit
)

// DeploymentConfig parameterizes NewDeployment. The zero value builds
// the paper's DBH with 200 occupants and the three paper services.
type DeploymentConfig struct {
	// Spec sizes the building; zero selects DBH().
	Spec BuildingSpec
	// Population is the occupant count; zero selects 200.
	Population int
	// Seed drives population and simulation determinism.
	Seed int64
	// RegisterPaperPolicies installs the paper's Policies 1–4.
	RegisterPaperPolicies bool
	// DefaultAllow is the decision when no preference matches
	// (default true, matching the paper's advertise-and-opt-out
	// model).
	DefaultDeny bool
	// GroupDefaults are per-group default rules applied when a
	// subject has no personal preference.
	GroupDefaults []GroupDefault
	// EnforceEngine selects the enforcement engine flavor: ""
	// or "compiled" (default; rules compiled into an indexed decision
	// structure plus the node's one decision memo) or "naive"
	// (scan-everything reference, which tests and bench/ compare
	// against).
	EnforceEngine string
	// Clock overrides time.Now.
	Clock func() time.Time
	// Metrics is the telemetry registry the BMS and its HTTP API
	// report on; nil lets the BMS create a private one (reachable via
	// BMS.Metrics).
	Metrics *MetricsRegistry
	// Store is the observation store the BMS ingests into; nil
	// creates an in-memory store. Pass an OpenDurableStore result for
	// crash-safe persistence — the deployment takes ownership and
	// closes it (flushing the WAL) on Close.
	Store *ObservationStore
	// StreamBuffer is the default per-subscription ring capacity for
	// live streams (default 256).
	StreamBuffer int
	// StreamPolicy is the default backpressure policy for live
	// streams (default StreamDropOldest).
	StreamPolicy Backpressure
	// Tracer samples end-to-end request traces through the pipeline;
	// nil disables tracing (and the /v1/traces endpoints serve
	// nothing).
	Tracer *Tracer
	// TraceSlow makes the API log any request slower than this with
	// its trace ID as an exemplar; zero disables the slow-request
	// log.
	TraceSlow time.Duration
	// ColumnarDir is the columnar tier's segment directory. Empty means
	// <store dir>/colstore for a durable Store and memory otherwise.
	ColumnarDir string
	// CompactInterval starts the background compactor at this period
	// (zero leaves compaction to explicit CompactOnce calls).
	CompactInterval time.Duration
	// SLOInterval starts a continuous SLO evaluator at this period
	// over the BMS metrics registry (zero disables it). The evaluator
	// serves GET /v1/slo on APIHandler.
	SLOInterval time.Duration
	// SLOWindow is the SLO error-budget window (zero selects 1h).
	SLOWindow time.Duration
	// SLOSpecs overrides the evaluated SLO set; nil selects
	// DefaultSLOSpecs(SLOWindow).
	SLOSpecs []SLOSpec
}

// Deployment is a fully wired building: BMS, population, services,
// and an auto-generated IRR.
type Deployment struct {
	BMS      *BMS
	Building *Building
	Users    *Directory
	Services *service.Registry
	IRR      *IRRegistry
	// SLO is the continuous SLO evaluator, present when
	// DeploymentConfig.SLOInterval was set.
	SLO *SLOEvaluator

	traceSlow time.Duration
	node      httpapi.HealthzDTO
}

// NewDeployment builds a complete simulated deployment: the building
// and its sensors, an occupant population, the paper's services, a
// BMS over them, and an IRR auto-generated from the building's
// policies and sensors (the paper's envisioned MUD-style automation).
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	spec := cfg.Spec
	if spec.ID == "" {
		spec = sim.DBH()
	}
	if cfg.Population == 0 {
		cfg.Population = 200
	}
	building, err := spec.Build()
	if err != nil {
		return nil, err
	}
	users := sim.GeneratePopulation(building, cfg.Population, sim.CampusMix(), cfg.Seed)

	services := service.NewRegistry()
	services.MustRegister(service.Concierge())
	services.MustRegister(service.SmartMeeting())
	services.MustRegister(service.FoodDelivery())
	services.MustRegister(service.Service{
		ID: "bms-emergency", Name: "BMS Emergency Response",
		Description: "Locates inhabitants in emergencies (Policy 2).",
		Developer:   service.DeveloperBuilding,
		Declares: []service.DataRequest{{
			ObsKind: sensor.ObsWiFiConnect, Purpose: policy.PurposeEmergencyResponse,
			Granularity: policy.GranExact,
			Description: "Emergency location lookup",
		}},
	})

	// An explicit engine flavor overrides core's default (compiled).
	// The config mirrors what core would build itself.
	var engine enforce.Engine
	if cfg.EnforceEngine != "" {
		engine, err = enforce.New(cfg.EnforceEngine, enforce.Config{
			Spaces:        building.Spaces,
			Services:      services,
			DefaultAllow:  !cfg.DefaultDeny,
			GroupDefaults: cfg.GroupDefaults,
		})
		if err != nil {
			return nil, err
		}
	}

	bms, err := core.New(core.Config{
		Spaces:        building.Spaces,
		Users:         users,
		Sensors:       building.Sensors,
		Services:      services,
		Engine:        engine,
		DefaultAllow:  !cfg.DefaultDeny,
		GroupDefaults: cfg.GroupDefaults,
		NoiseSeed:     cfg.Seed,
		Clock:         cfg.Clock,
		Metrics:       cfg.Metrics,
		Store:         cfg.Store,
		StreamBuffer:  cfg.StreamBuffer,
		StreamPolicy:  cfg.StreamPolicy,
		Tracer:        cfg.Tracer,

		ColumnarDir: cfg.ColumnarDir,
	})
	if err != nil {
		return nil, err
	}
	if cfg.CompactInterval > 0 {
		bms.StartCompaction(cfg.CompactInterval)
	}

	if cfg.RegisterPaperPolicies {
		pols := []policy.BuildingPolicy{
			policy.Policy1Comfort(spec.ID, 70),
			policy.Policy2EmergencyLocation(spec.ID),
			policy.Policy4EventDisclosure(building.Classrooms[0], "event-participants"),
		}
		pols = append(pols, policy.Policy3MeetingRoomAccess(building.Offices[0])...)
		for _, p := range pols {
			if err := bms.RegisterPolicy(p); err != nil {
				bms.Close()
				return nil, fmt.Errorf("tippers: registering %s: %w", p.ID, err)
			}
		}
	}

	// The IRR is populated two ways, both automated: the building's
	// enforceable policies become Figure-2-shape advertisements, and
	// every deployed sensor type gets an advertisement derived from
	// its manufacturer usage description (the §V.B MUD automation).
	registry := irr.NewRegistry(spec.ID+"-irr", building.Spaces)
	settingsBase := "https://tippers." + spec.ID + ".example/settings"
	if err := irr.AutoGenerate(registry, bms.Policies(), irr.AutoGenerateConfig{
		BuildingID:   spec.ID,
		BuildingName: spec.Name,
		OwnerName:    "UCI",
		MoreInfoURL:  "https://www.uci.edu",
		SettingsBase: settingsBase,
	}); err != nil {
		bms.Close()
		return nil, err
	}
	if err := mud.PopulateRegistry(registry, building.Sensors, spec.Name, spec.ID, "UCI", settingsBase); err != nil {
		bms.Close()
		return nil, err
	}
	for _, svc := range services.All() {
		if err := registry.PublishService(svc.PolicyDoc()); err != nil {
			bms.Close()
			return nil, err
		}
	}

	dep := &Deployment{
		BMS:      bms,
		Building: building,
		Users:    users,
		Services: services,
		IRR:      registry,

		traceSlow: cfg.TraceSlow,
		node: httpapi.HealthzDTO{
			Building:     spec.ID,
			BuildingName: spec.Name,
			Floors:       spec.Floors,
			Population:   cfg.Population,
			Seed:         cfg.Seed,
		},
	}
	if cfg.SLOInterval > 0 {
		specs := cfg.SLOSpecs
		if specs == nil {
			specs = slo.DefaultTippersSpecs(cfg.SLOWindow)
		}
		ev, err := slo.New(bms.Metrics(), specs, slo.Options{Interval: cfg.SLOInterval})
		if err != nil {
			bms.Close()
			return nil, err
		}
		ev.Start()
		dep.SLO = ev
	}
	return dep, nil
}

// Close shuts the deployment down.
func (d *Deployment) Close() {
	if d.SLO != nil {
		d.SLO.Stop()
	}
	d.BMS.Close()
}

// NewAssistant returns an IoTA for one of the deployment's users,
// wired to push configured preferences into the BMS.
func (d *Deployment) NewAssistant(userID string) (*Assistant, error) {
	if _, ok := d.Users.Lookup(userID); !ok {
		return nil, fmt.Errorf("tippers: unknown user %q", userID)
	}
	return iota.New(iota.Config{UserID: userID, Sink: d.BMS})
}

// NewAssistantForSink returns an IoTA for a user that pushes
// configured preferences to an arbitrary sink — typically an
// httpapi.Client pointed at a remote TIPPERS node.
func NewAssistantForSink(userID string, sink iota.PreferenceSink) (*Assistant, error) {
	return iota.New(iota.Config{UserID: userID, Sink: sink})
}

// SimulateDay runs one simulated day through the BMS ingest pipeline
// and returns how many observations were ingested (capture-time
// enforcement may drop some).
func (d *Deployment) SimulateDay(date time.Time, seed int64) (int, error) {
	res := sim.SimulateDay(d.Building, d.Users, sim.DayConfig{Date: date, Seed: seed})
	before := d.BMS.Stats().Ingested
	for _, o := range res.Observations {
		if err := d.BMS.Ingest(o); err != nil {
			return 0, err
		}
	}
	return int(d.BMS.Stats().Ingested - before), nil
}

// APIHandler returns the TIPPERS REST API for the deployment's BMS,
// instrumented with per-route metrics on the BMS registry and, when
// the deployment has a tracer, per-request spans.
func (d *Deployment) APIHandler() http.Handler {
	srv := httpapi.NewServer(d.BMS).WithMetrics(d.BMS.Metrics()).WithNodeInfo(d.node)
	if t := d.BMS.Tracer(); t != nil {
		srv = srv.WithTracing(t, d.traceSlow, nil)
	}
	if d.SLO != nil {
		srv = srv.WithSLO(d.SLO.Handler())
	}
	return srv.Handler()
}

// IRRHandler returns the deployment registry's HTTP interface.
func (d *Deployment) IRRHandler() http.Handler {
	return d.IRR.Handler()
}
