package policy

import (
	"bytes"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
)

// This file implements the wire form of the policy language: the JSON
// documents IRRs broadcast and IoTAs consume, shaped exactly like the
// paper's Figures 2 (building data-collection policy), 3 (service
// policy), and 4 (available privacy settings). The paper writes the
// language as a JSON-Schema v4 schema (§IV.C); here the Go types are
// the schema: their json tags name the keys and mark the required ones
// (those without omitempty), and Validate checks the rest. Parsers
// check a document on the value it decodes to (parseDocument).

// ResourceDocument is the top-level advertisement an IRR serves: a
// list of resources, each describing one data-collection practice
// (Figure 2's {"resources": [...]}).
type ResourceDocument struct {
	Resources []Resource `json:"resources"`
}

// Resource describes one data-collection practice from the user's
// perspective (§IV.B): context, purpose, data collected and inferred,
// retention, and any user-configurable settings.
type Resource struct {
	Info         Info              `json:"info"`
	Context      *ResourceContext  `json:"context,omitempty"`
	Purpose      PurposeBlock      `json:"purpose,omitempty"`
	Observations []ObservationDesc `json:"observations,omitempty"`
	Retention    *RetentionBlock   `json:"retention,omitempty"`
	Settings     []SettingGroup    `json:"settings,omitempty"`
	// PolicyID links the advertisement to the enforceable
	// BuildingPolicy it describes, so an IoTA's configured choice can
	// be routed back to the right rule.
	PolicyID string `json:"policy_id,omitempty"`
}

// Info names a resource.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// ResourceContext is the paper's context element (§IV.B.1): "meta
// information about the building and the BMS that point users to
// general information."
type ResourceContext struct {
	Location *LocationBlock `json:"location,omitempty"`
	Sensor   *SensorBlock   `json:"sensor,omitempty"`
}

// LocationBlock describes where collection happens and who owns the
// space.
type LocationBlock struct {
	Spatial SpatialRef  `json:"spatial"`
	Owner   *OwnerBlock `json:"location_owner,omitempty"`
}

// SpatialRef names a space by human name and type (Figure 2:
// {"name": "Donald Bren Hall", "type": "Building"}).
type SpatialRef struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// ID optionally carries the machine-resolvable space ID.
	ID string `json:"id,omitempty"`
}

// OwnerBlock identifies the data controller.
type OwnerBlock struct {
	Name             string            `json:"name"`
	HumanDescription map[string]string `json:"human_description,omitempty"`
}

// SensorBlock describes the collecting sensor type.
type SensorBlock struct {
	Type        string `json:"type"`
	Description string `json:"description,omitempty"`
}

// PurposeDetail explains one purpose.
type PurposeDetail struct {
	Description string `json:"description"`
}

// PurposeBlock is the paper's purpose element. Its JSON form is an
// object mapping purpose names to details, optionally carrying a
// sibling "service_id" key (Figure 3):
//
//	{"providing_service": {"description": "..."}, "service_id": "Concierge"}
type PurposeBlock struct {
	Entries   map[Purpose]PurposeDetail
	ServiceID string
}

// IsZero reports whether the block is empty.
func (p PurposeBlock) IsZero() bool { return len(p.Entries) == 0 && p.ServiceID == "" }

// MarshalJSON renders the paper's mixed-object form.
func (p PurposeBlock) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	keys := make([]string, 0, len(p.Entries))
	for k := range p.Entries {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	first := true
	writeKey := func(k string, v any) error {
		if !first {
			buf.WriteByte(',')
		}
		first = false
		kb, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vb, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf.Write(kb)
		buf.WriteByte(':')
		buf.Write(vb)
		return nil
	}
	for _, k := range keys {
		if err := writeKey(k, p.Entries[Purpose(k)]); err != nil {
			return nil, err
		}
	}
	if p.ServiceID != "" {
		if err := writeKey("service_id", p.ServiceID); err != nil {
			return nil, err
		}
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON parses the mixed-object form.
func (p *PurposeBlock) UnmarshalJSON(data []byte) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	out := PurposeBlock{Entries: make(map[Purpose]PurposeDetail)}
	for k, v := range raw {
		if k == "service_id" {
			if err := json.Unmarshal(v, &out.ServiceID); err != nil {
				return fmt.Errorf("policy: purpose service_id: %w", err)
			}
			continue
		}
		var d PurposeDetail
		if err := json.Unmarshal(v, &d); err != nil {
			return fmt.Errorf("policy: purpose %q: %w", k, err)
		}
		out.Entries[Purpose(k)] = d
	}
	if len(out.Entries) == 0 {
		out.Entries = nil
	}
	*p = out
	return nil
}

// ObservationDesc is the paper's data-collected-and-inferred element
// (§IV.B.2): what is captured, at what granularity, and what can be
// inferred from it.
type ObservationDesc struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Granularity states collection precision; "it is important to
	// specify the abstract information that can be inferred" —
	// Inferred lists those abstractions (e.g. "occupancy",
	// "working-pattern").
	Granularity string   `json:"granularity,omitempty"`
	Inferred    []string `json:"inferred,omitempty"`
}

// RetentionBlock carries the retention period (Figure 2:
// {"duration": "P6M"}).
type RetentionBlock struct {
	Duration isodur.Duration `json:"duration"`
}

// SettingGroup is one user-facing choice among mutually exclusive
// options (Figure 4's {"select": [...]}).
type SettingGroup struct {
	Select []SettingOption `json:"select"`
}

// SettingOption is one choice in a setting group. On is the
// opt-in/out endpoint the choice activates, carrying its parameters
// as a query string (Figure 4's "on": "...wifi=opt-in").
type SettingOption struct {
	Description string `json:"description"`
	On          string `json:"on"`
	// Granularity optionally machine-annotates the location precision
	// this option yields, so IoTAs can pick options automatically.
	Granularity string `json:"granularity,omitempty"`
}

// spaceTypes are the spatial types a resource's location may name.
var spaceTypes = map[string]bool{
	"Campus": true, "Building": true, "Floor": true, "Room": true, "Corridor": true, "Zone": true,
}

// Validate checks what the types alone do not: the document advertises
// at least one resource, every resource is named, a location names one
// of spaceTypes, and every settings group offers at least one option.
func (d ResourceDocument) Validate() error {
	if len(d.Resources) == 0 {
		return errors.New("no resources")
	}
	for i, r := range d.Resources {
		switch {
		case r.Info.Name == "":
			return fmt.Errorf("resource %d has no name", i)
		case r.Context != nil && r.Context.Location != nil && !spaceTypes[r.Context.Location.Spatial.Type]:
			return fmt.Errorf("resource %d: unknown space type %q", i, r.Context.Location.Spatial.Type)
		}
		for j, g := range r.Settings {
			if len(g.Select) == 0 {
				return fmt.Errorf("resource %d: settings group %d offers no option", i, j)
			}
		}
	}
	return nil
}

// MarshalIndent renders the document as indented JSON.
func (d ResourceDocument) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// ParseResourceDocument parses and validates an IRR advertisement.
// IoTAs must not act on documents that fail validation.
func ParseResourceDocument(raw []byte) (ResourceDocument, error) {
	return parseDocument[ResourceDocument](raw, "resource document")
}

// ServicePolicyDoc is the Figure 3 shape: what a service observes and
// why, without the building context block.
type ServicePolicyDoc struct {
	Observations []ObservationDesc `json:"observations"`
	Purpose      PurposeBlock      `json:"purpose"`
}

// Validate checks that the service policy lists at least one
// observation.
func (d ServicePolicyDoc) Validate() error {
	if len(d.Observations) == 0 {
		return errors.New("no observations")
	}
	return nil
}

// ParseServicePolicyDoc parses and validates a Figure-3-shape
// document.
func ParseServicePolicyDoc(raw []byte) (ServicePolicyDoc, error) {
	return parseDocument[ServicePolicyDoc](raw, "service policy")
}

// parseDocument decodes raw into a T and accepts it only if
//   - every key of T's types is spelled exactly where it is required
//     and is never null (exactKeys), which decoding alone forgives;
//   - the value T decodes to is valid;
//   - so is the value the exact-case keys alone decode to.
//
// encoding/json also matches keys that differ in case and keeps the
// last value, so the two values differ when a document spells a key
// twice; checking both means neither spelling can hide an invalid one.
func parseDocument[T interface{ Validate() error }](raw []byte, what string) (T, error) {
	var d, exact, zero T
	if err := json.Unmarshal(raw, &d); err != nil {
		return zero, fmt.Errorf("policy: %s parse: %w", what, err)
	}
	// Known keys hold no numbers, so decoding them as float64 loses
	// nothing the view keeps.
	var tree any
	err := json.Unmarshal(raw, &tree)
	if err == nil {
		tree, err = exactKeys(tree, reflect.TypeOf(d))
	}
	var view []byte
	if err == nil {
		view, err = json.Marshal(tree)
	}
	if err == nil {
		err = json.Unmarshal(view, &exact)
	}
	if err == nil {
		err = exact.Validate()
	}
	if err == nil {
		err = d.Validate()
	}
	if err != nil {
		return zero, fmt.Errorf("policy: %s rejected: %w", what, err)
	}
	return d, nil
}

var (
	purposeBlockType  = reflect.TypeOf(PurposeBlock{})
	purposeDetailType = reflect.TypeOf(PurposeDetail{})
	textUnmarshaler   = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
)

// exactKeys checks v, a JSON value decoded into any whose text has
// already decoded into a value of type t, and returns it cut down to
// the keys t names, spelled exactly. A struct's keys are its json tags,
// and those without omitempty are required. No such key, and no element
// of an array or map under one, may be null. Keys t does not name stay
// allowed. Types that decode themselves from text (isodur.Duration) are
// leaves, and a PurposeBlock maps purpose names to PurposeDetails
// beside an optional "service_id".
func exactKeys(v any, t reflect.Type) (any, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch {
	case reflect.PointerTo(t).Implements(textUnmarshaler):
		return v, nil
	case t.Kind() == reflect.Slice:
		elems, _ := v.([]any)
		out := make([]any, len(elems))
		for i, e := range elems {
			var err error
			if out[i], err = exactElem(e, t.Elem()); err != nil {
				return nil, fmt.Errorf("[%d]: %w", i, err)
			}
		}
		return out, nil
	case t.Kind() == reflect.Map || t == purposeBlockType:
		elems, _ := v.(map[string]any)
		out := make(map[string]any, len(elems))
		for k, e := range elems {
			et := purposeDetailType
			if t.Kind() == reflect.Map {
				et = t.Elem()
			} else if k == "service_id" {
				et = reflect.TypeOf(k)
			}
			var err error
			if out[k], err = exactElem(e, et); err != nil {
				return nil, fmt.Errorf("%s: %w", k, err)
			}
		}
		return out, nil
	case t.Kind() != reflect.Struct:
		return v, nil
	}
	in, _ := v.(map[string]any)
	out := make(map[string]any, len(in))
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		e, ok := in[name]
		if !ok {
			if opts != "omitempty" {
				return nil, fmt.Errorf("missing %q", name)
			}
			continue
		}
		var err error
		if out[name], err = exactElem(e, f.Type); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return out, nil
}

// exactElem is exactKeys for a value that may not be null.
func exactElem(v any, t reflect.Type) (any, error) {
	if v == nil {
		return nil, errors.New("is null")
	}
	return exactKeys(v, t)
}

// AdvertisementFor renders an enforceable building policy as a
// Figure-2-shape resource, the translation an IRR applies when
// advertising the building's policies (Figure 1 step 4).
// buildingName/buildingKind/ownerName describe the context block;
// settingsBase is the endpoint settings options point at (empty
// disables the settings block).
func AdvertisementFor(p BuildingPolicy, buildingName string, buildingKind string, ownerName string, moreInfoURL string, settingsBase string) Resource {
	res := Resource{
		Info:     Info{Name: p.Name, Description: p.Description},
		PolicyID: p.ID,
	}
	ctx := &ResourceContext{}
	if buildingName != "" {
		ctx.Location = &LocationBlock{
			Spatial: SpatialRef{Name: buildingName, Type: buildingKind, ID: p.Scope.SpaceID},
		}
		if ownerName != "" {
			ctx.Location.Owner = &OwnerBlock{Name: ownerName}
			if moreInfoURL != "" {
				ctx.Location.Owner.HumanDescription = map[string]string{"more_info": moreInfoURL}
			}
		}
	}
	if p.Scope.SensorType != 0 {
		ctx.Sensor = &SensorBlock{Type: p.Scope.SensorType.String()}
	}
	if ctx.Location != nil || ctx.Sensor != nil {
		res.Context = ctx
	}
	if len(p.Scope.Purposes) > 0 {
		res.Purpose = PurposeBlock{Entries: map[Purpose]PurposeDetail{}}
		for _, purpose := range p.Scope.Purposes {
			res.Purpose.Entries[purpose] = PurposeDetail{Description: p.Description}
		}
	}
	if p.Scope.ObsKind != "" {
		res.Observations = []ObservationDesc{{
			Name:        string(p.Scope.ObsKind),
			Description: p.Description,
		}}
	}
	if !p.Retention.IsZero() {
		res.Retention = &RetentionBlock{Duration: p.Retention}
	}
	if settingsBase != "" && !p.Override {
		// Non-overriding collection policies expose the Figure 4
		// opt-in/coarse/opt-out ladder.
		res.Settings = []SettingGroup{LocationSettingLadder(settingsBase)}
	}
	return res
}

// LocationSettingLadder builds the paper's Figure 4 settings block:
// fine-grained, coarse-grained, or no location sensing.
func LocationSettingLadder(base string) SettingGroup {
	return SettingGroup{Select: []SettingOption{
		{
			Description: "fine grained location sensing",
			On:          base + "?wifi=opt-in&granularity=fine",
			Granularity: "fine",
		},
		{
			Description: "coarse grained location sensing",
			On:          base + "?wifi=opt-in&granularity=coarse",
			Granularity: "coarse",
		},
		{
			Description: "No location sensing",
			On:          base + "?wifi=opt-out",
			Granularity: "none",
		},
	}}
}

// Figure2Document reproduces the paper's Figure 2 verbatim: the
// "Location tracking in DBH" collection policy.
func Figure2Document() ResourceDocument {
	return ResourceDocument{Resources: []Resource{{
		Info: Info{Name: "Location tracking in DBH"},
		Context: &ResourceContext{
			Location: &LocationBlock{
				Spatial: SpatialRef{Name: "Donald Bren Hall", Type: "Building"},
				Owner: &OwnerBlock{
					Name:             "UCI",
					HumanDescription: map[string]string{"more_info": "https://www.uci.edu"},
				},
			},
			Sensor: &SensorBlock{
				Type:        "WiFi Access Point",
				Description: "Installed inside the building and covers rooms and corridors",
			},
		},
		Purpose: PurposeBlock{Entries: map[Purpose]PurposeDetail{
			"emergency response": {Description: "Location is stored continuously"},
		}},
		Observations: []ObservationDesc{{
			Name:        "MAC address of the device",
			Description: "If your device is connected to a WiFi Access Point in DBH, its MAC address is stored",
		}},
		Retention: &RetentionBlock{Duration: isodur.SixMonths},
	}}}
}

// Figure3Document reproduces the paper's Figure 3: the Concierge
// service policy.
func Figure3Document() ServicePolicyDoc {
	return ServicePolicyDoc{
		Observations: []ObservationDesc{
			{
				Name:        string(sensor.ObsWiFiConnect),
				Description: "Whenever one of your devices connects to the DBH WiFi its MAC address is stored",
			},
			{
				Name:        string(sensor.ObsBLESighting),
				Description: "When you have Concierge installed and your bluetooth senses a beacon, the room you are in is stored",
			},
		},
		Purpose: PurposeBlock{
			Entries: map[Purpose]PurposeDetail{
				PurposeProvidingService: {Description: "Your location data is used to give you directions around the Bren Hall."},
			},
			ServiceID: "Concierge",
		},
	}
}

// Figure4Settings reproduces the paper's Figure 4: the available
// privacy-settings ladder.
func Figure4Settings() []SettingGroup {
	return []SettingGroup{LocationSettingLadder("https://tippers.dbh.uci.example/settings")}
}
