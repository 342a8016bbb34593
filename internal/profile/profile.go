// Package profile implements the paper's user-profile model
// (§IV.A.2): people in the environment, organized into groups
// (students, faculty, staff, ...) that share common properties such as
// access permissions. A user can hold multiple profiles, each carrying
// attributes like department, affiliation, and office assignment.
package profile

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Group is a named class of users sharing common properties. The
// paper's examples use the campus roles below, but groups are open:
// buildings may define their own (e.g. "event-participants").
type Group string

// Campus roles from the paper's DBH scenario.
const (
	GroupStudent       Group = "student"
	GroupGradStudent   Group = "grad-student"
	GroupUndergrad     Group = "undergrad"
	GroupFaculty       Group = "faculty"
	GroupStaff         Group = "staff"
	GroupVisitor       Group = "visitor"
	GroupBuildingAdmin Group = "building-admin"
)

// Profile is one facet of a user: their role in some context plus the
// attributes that role carries. The paper: "A user can have multiple
// profiles which includes information such as department, affiliation,
// and office assignment."
type Profile struct {
	Group       Group
	Department  string
	Affiliation string
	// OfficeID is the spatial ID of the user's assigned office, if
	// any. Preference 1 ("do not share the occupancy status of my
	// office after-hours") resolves "my office" through this field.
	OfficeID   string
	Attributes map[string]string
}

// User is a building inhabitant known to the system.
type User struct {
	ID       string // stable identifier, e.g. "mary"
	Name     string
	Email    string
	Profiles []Profile
	// DeviceMACs are the MAC addresses of the user's devices; WiFi AP
	// and BLE observations are attributed to users through this
	// mapping, which is exactly the linkage the paper's §II.A threat
	// analysis describes.
	DeviceMACs []string

	// groups is Groups() computed once, set on the copy a Directory
	// stores. Enforcement asks for a subject's groups on every
	// decision; the directory is add-only, so the answer never changes.
	groups []Group
}

// HasGroup reports whether any of the user's profiles belongs to g.
func (u *User) HasGroup(g Group) bool {
	for _, p := range u.Profiles {
		if p.Group == g {
			return true
		}
	}
	return false
}

// Offices returns the distinct office space IDs across the user's
// profiles.
func (u *User) Offices() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range u.Profiles {
		if p.OfficeID != "" && !seen[p.OfficeID] {
			seen[p.OfficeID] = true
			out = append(out, p.OfficeID)
		}
	}
	sort.Strings(out)
	return out
}

// Groups returns the distinct groups across the user's profiles,
// sorted. For a user obtained from a Directory the slice is shared:
// callers must not modify it.
func (u *User) Groups() []Group {
	if u.groups != nil {
		return u.groups
	}
	return distinctGroups(u.Profiles)
}

// distinctGroups never returns nil, so a stored user's cached groups
// are distinguishable from "not computed".
func distinctGroups(profiles []Profile) []Group {
	seen := map[Group]bool{}
	out := []Group{}
	for _, p := range profiles {
		if p.Group != "" && !seen[p.Group] {
			seen[p.Group] = true
			out = append(out, p.Group)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Directory is the registry of users. It supports lookup by ID and by
// device MAC (the attribution path for network observations).
// A Directory is safe for concurrent use.
type Directory struct {
	mu    sync.RWMutex
	byID  map[string]*User
	byMAC map[string]*User
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		byID:  make(map[string]*User),
		byMAC: make(map[string]*User),
	}
}

// Errors returned by Directory operations.
var (
	ErrDuplicateUser = errors.New("profile: duplicate user ID")
	ErrDuplicateMAC  = errors.New("profile: device MAC already registered")
	ErrUnknownUser   = errors.New("profile: unknown user")
)

// Add registers a user. The user's device MACs must not collide with
// any already-registered device.
func (d *Directory) Add(u User) error {
	if u.ID == "" {
		return errors.New("profile: user ID must be non-empty")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.byID[u.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateUser, u.ID)
	}
	for _, mac := range u.DeviceMACs {
		if prev, ok := d.byMAC[mac]; ok {
			return fmt.Errorf("%w: %q already belongs to %q", ErrDuplicateMAC, mac, prev.ID)
		}
	}
	stored := u
	stored.Profiles = append([]Profile(nil), u.Profiles...)
	stored.DeviceMACs = append([]string(nil), u.DeviceMACs...)
	stored.groups = distinctGroups(stored.Profiles)
	d.byID[stored.ID] = &stored
	for _, mac := range stored.DeviceMACs {
		d.byMAC[mac] = &stored
	}
	return nil
}

// MustAdd is Add for construction code with known-good data.
func (d *Directory) MustAdd(u User) {
	if err := d.Add(u); err != nil {
		panic(err)
	}
}

// Lookup returns the user with the given ID.
func (d *Directory) Lookup(id string) (*User, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	u, ok := d.byID[id]
	return u, ok
}

// LookupMAC resolves a device MAC address to its owner, the
// attribution step behind the paper's WiFi-log privacy threat.
func (d *Directory) LookupMAC(mac string) (*User, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	u, ok := d.byMAC[mac]
	return u, ok
}

// Canonical returns the directory's own string equal to b when b is a
// registered device MAC or user ID. The directory never drops a
// registration, so the caller may keep it instead of copying b.
func (d *Directory) Canonical(b []byte) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if u, ok := d.byMAC[string(b)]; ok {
		for _, mac := range u.DeviceMACs {
			if mac == string(b) {
				return mac, true
			}
		}
	}
	if u, ok := d.byID[string(b)]; ok {
		return u.ID, true
	}
	return "", false
}

// Members returns the IDs of users having the given group, sorted.
func (d *Directory) Members(g Group) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for id, u := range d.byID {
		if u.HasGroup(g) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// All returns every user sorted by ID.
func (d *Directory) All() []*User {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*User, 0, len(d.byID))
	for _, u := range d.byID {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered users.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// OfficeOwner returns the IDs of users whose profiles assign them the
// given office, sorted. Preference 1 enforcement uses this to decide
// whose occupancy an office reveals.
func (d *Directory) OfficeOwner(officeID string) []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var out []string
	for id, u := range d.byID {
		for _, p := range u.Profiles {
			if p.OfficeID == officeID {
				out = append(out, id)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
