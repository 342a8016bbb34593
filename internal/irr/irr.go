// Package irr implements IoT Resource Registries: the component that
// "broadcast[s] data collection policies and sharing practices of the
// IoT technologies with which users interact" (§I). An IRR serves
// machine-readable policy documents (Figure 2/3 shapes) over HTTP;
// IoT Assistants discover registries covering their location and
// fetch the policies of nearby resources (Figure 1 steps 4–5).
//
// Registries can be populated manually or auto-generated from a
// building's policy set and, through package mud, from the
// Manufacturer Usage Descriptions of its sensors (§V.B).
package irr

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/spatial"
)

// Entry is one advertised resource with its spatial coverage.
type Entry struct {
	// SpaceID is the subtree the resource's collection covers.
	SpaceID  string
	Resource policy.Resource
}

// Registry holds advertisements and answers location-scoped queries.
// It is safe for concurrent use.
type Registry struct {
	name   string
	spaces *spatial.Model

	mu       sync.RWMutex
	entries  []Entry
	services map[string]policy.ServicePolicyDoc
}

// NewRegistry returns an empty registry. name identifies the registry
// in discovery metadata; spaces resolves coverage queries (nil means
// exact-ID coverage matching).
func NewRegistry(name string, spaces *spatial.Model) *Registry {
	return &Registry{
		name:     name,
		spaces:   spaces,
		services: make(map[string]policy.ServicePolicyDoc),
	}
}

// Name returns the registry's name.
func (r *Registry) Name() string { return r.name }

// Publish validates and adds one resource advertisement covering the
// given space.
func (r *Registry) Publish(spaceID string, res policy.Resource) error {
	doc := policy.ResourceDocument{Resources: []policy.Resource{res}}
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("irr: rejected advertisement: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, Entry{SpaceID: spaceID, Resource: res})
	return nil
}

// PublishService validates and adds a service policy document
// (Figure 3 shape).
func (r *Registry) PublishService(doc policy.ServicePolicyDoc) error {
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("irr: rejected service policy: %w", err)
	}
	if doc.Purpose.ServiceID == "" {
		return errors.New("irr: service policy needs a service_id")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.services[doc.Purpose.ServiceID] = doc
	return nil
}

// Len returns the number of resource entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Coverage returns the distinct space IDs the registry's entries
// cover, sorted. Discovery metadata exposes it.
func (r *Registry) Coverage() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[string]bool{}
	var out []string
	for _, e := range r.entries {
		if e.SpaceID != "" && !seen[e.SpaceID] {
			seen[e.SpaceID] = true
			out = append(out, e.SpaceID)
		}
	}
	sort.Strings(out)
	return out
}

// Document returns the resource document for a location: every entry
// whose coverage is spatially related to spaceID (the entry covers
// the query space, or lies inside it). An empty spaceID returns
// everything — the paper's "discover technologies in their
// surroundings" with the surroundings being the whole building.
func (r *Registry) Document(spaceID string) policy.ResourceDocument {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []policy.Resource
	for _, e := range r.entries {
		if spaceID == "" || e.SpaceID == "" || e.SpaceID == spaceID {
			out = append(out, e.Resource)
			continue
		}
		if r.spaces != nil {
			in1, err1 := r.spaces.Contained(spaceID, e.SpaceID)
			in2, err2 := r.spaces.Contained(e.SpaceID, spaceID)
			if (err1 == nil && in1) || (err2 == nil && in2) {
				out = append(out, e.Resource)
			}
		}
	}
	return policy.ResourceDocument{Resources: out}
}

// ServiceDocs returns the advertised service policies sorted by
// service ID.
func (r *Registry) ServiceDocs() []policy.ServicePolicyDoc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]policy.ServicePolicyDoc, 0, len(r.services))
	for _, d := range r.services {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Purpose.ServiceID < out[j].Purpose.ServiceID
	})
	return out
}

// AutoGenerateConfig parameterizes MUD-style registry generation.
type AutoGenerateConfig struct {
	BuildingID   string // spatial ID of the building
	BuildingName string // human name for context blocks
	OwnerName    string
	MoreInfoURL  string
	// SettingsBase is the endpoint advertised settings point at;
	// empty suppresses settings blocks.
	SettingsBase string
}

// AutoGenerate populates the registry from a building's enforceable
// policies: each collection/disclosure policy becomes a Figure-2-shape
// advertisement. This is half of the paper's §V.B automation ("we
// envision that the setup of IRRs can be automated"); the other half,
// one advertisement per deployed sensor type, is mud.PopulateRegistry.
func AutoGenerate(r *Registry, policies []policy.BuildingPolicy, cfg AutoGenerateConfig) error {
	kind := "Building"
	if r.spaces != nil {
		if sp, ok := r.spaces.Lookup(cfg.BuildingID); ok {
			kind = sp.Kind.String()
		}
	}
	for _, p := range policies {
		if p.Kind != policy.KindCollection && p.Kind != policy.KindDisclosure {
			continue
		}
		res := policy.AdvertisementFor(p, cfg.BuildingName, kind, cfg.OwnerName, cfg.MoreInfoURL, cfg.SettingsBase)
		space := p.Scope.SpaceID
		if space == "" {
			space = cfg.BuildingID
		}
		if err := r.Publish(space, res); err != nil {
			return err
		}
	}
	return nil
}
