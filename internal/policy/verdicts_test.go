package policy

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/tippers/tippers/internal/isodur"
)

// verdict is one entry of testdata/verdicts.json: a document and whether
// the JSON-Schema validator that used to check documents accepted it.
// The corpus holds the documents the tests use and mechanical mutations
// of Figures 2 and 3, of AdvertisementFor and of a MUD-derived resource:
// every key dropped, nulled, given a wrong JSON type, emptied, and
// respelled in another case, alone and beside the exact key.
type verdict struct {
	Kind   string `json:"kind"` // "resource" or "service"
	Doc    string `json:"doc"`
	Accept bool   `json:"accept"`
	// Changed is "reject" where the old validator accepted a document
	// whose decoded value is invalid: a key respelled in another case
	// decoded over the one it had checked.
	Changed string `json:"changed,omitempty"`
}

func loadVerdicts(t testing.TB) []verdict {
	t.Helper()
	raw, err := os.ReadFile("testdata/verdicts.json")
	if err != nil {
		t.Fatal(err)
	}
	var vs []verdict
	if err := json.Unmarshal(raw, &vs); err != nil {
		t.Fatal(err)
	}
	return vs
}

func parseKind(kind string, doc []byte) error {
	var err error
	if kind == "service" {
		_, err = ParseServicePolicyDoc(doc)
	} else {
		_, err = ParseResourceDocument(doc)
	}
	return err
}

func TestVerdictCorpus(t *testing.T) {
	vs := loadVerdicts(t)
	changed := 0
	for _, v := range vs {
		want := v.Accept && v.Changed == ""
		if v.Changed != "" {
			changed++
		}
		if err := parseKind(v.Kind, []byte(v.Doc)); (err == nil) != want {
			t.Errorf("%s %s: accepted = %v, want %v (err %v)", v.Kind, v.Doc, err == nil, want, err)
		}
	}
	if len(vs) < 1000 || changed == 0 {
		t.Fatalf("corpus has %d entries, %d changed", len(vs), changed)
	}
}

// TestValidateTypedValues pins Validate on values built in Go, as the
// IRR's Publish sees them; every verdict is the old validator's.
func TestValidateTypedValues(t *testing.T) {
	res := func(mod func(r *Resource)) ResourceDocument {
		r := Resource{Info: Info{Name: "x"}}
		mod(&r)
		return ResourceDocument{Resources: []Resource{r}}
	}
	loc := func(typ string) func(r *Resource) {
		return func(r *Resource) {
			r.Context = &ResourceContext{Location: &LocationBlock{Spatial: SpatialRef{Name: "D", Type: typ}}}
		}
	}
	cases := []struct {
		name  string
		doc   interface{ Validate() error }
		valid bool
	}{
		{"nil resources", ResourceDocument{}, false},
		{"empty resources", ResourceDocument{Resources: []Resource{}}, false},
		{"zero resource", ResourceDocument{Resources: []Resource{{}}}, false},
		{"empty name", res(func(r *Resource) { r.Info.Name = "" }), false},
		{"named", res(func(r *Resource) {}), true},
		{"empty context", res(func(r *Resource) { r.Context = &ResourceContext{} }), true},
		{"sensor without type", res(func(r *Resource) { r.Context = &ResourceContext{Sensor: &SensorBlock{}} }), true},
		{"location without type", res(loc("")), false},
		{"unknown space type", res(loc("Spaceship")), false},
		{"lower-case space type", res(loc("building")), false},
		{"campus", res(loc("Campus")), true},
		{"building", res(loc("Building")), true},
		{"floor", res(loc("Floor")), true},
		{"room", res(loc("Room")), true},
		{"corridor", res(loc("Corridor")), true},
		{"zone", res(loc("Zone")), true},
		{"empty owner", res(func(r *Resource) {
			loc("Building")(r)
			r.Context.Location.Owner = &OwnerBlock{HumanDescription: map[string]string{}}
		}), true},
		{"nil settings", res(func(r *Resource) { r.Settings = nil }), true},
		{"empty settings", res(func(r *Resource) { r.Settings = []SettingGroup{} }), true},
		{"nil select", res(func(r *Resource) { r.Settings = []SettingGroup{{}} }), false},
		{"empty select", res(func(r *Resource) { r.Settings = []SettingGroup{{Select: []SettingOption{}}} }), false},
		{"zero option", res(func(r *Resource) { r.Settings = []SettingGroup{{Select: []SettingOption{{}}}} }), true},
		{"second group empty", res(func(r *Resource) {
			r.Settings = []SettingGroup{LocationSettingLadder("s"), {Select: []SettingOption{}}}
		}), false},
		{"zero retention", res(func(r *Resource) { r.Retention = &RetentionBlock{} }), true},
		{"negative retention", res(func(r *Resource) {
			r.Retention = &RetentionBlock{Duration: isodur.Duration{Negative: true, Days: 1}}
		}), true},
		{"fractional retention", res(func(r *Resource) {
			r.Retention = &RetentionBlock{Duration: isodur.Duration{Seconds: 0.5}}
		}), true},
		{"nil observations", res(func(r *Resource) { r.Observations = nil }), true},
		{"empty observations", res(func(r *Resource) { r.Observations = []ObservationDesc{} }), true},
		{"zero observation", res(func(r *Resource) { r.Observations = []ObservationDesc{{Inferred: []string{}}} }), true},
		{"empty purpose", res(func(r *Resource) { r.Purpose = PurposeBlock{Entries: map[Purpose]PurposeDetail{}} }), true},
		{"purpose without description", res(func(r *Resource) {
			r.Purpose = PurposeBlock{Entries: map[Purpose]PurposeDetail{"p": {}}}
		}), true},
		{"second resource unnamed", ResourceDocument{Resources: []Resource{{Info: Info{Name: "x"}}, {}}}, false},
		{"figure 2", Figure2Document(), true},
		{"service nil observations", ServicePolicyDoc{}, false},
		{"service empty observations", ServicePolicyDoc{Observations: []ObservationDesc{}}, false},
		{"service zero observation", ServicePolicyDoc{Observations: []ObservationDesc{{}}}, true},
		{"service with service id only", ServicePolicyDoc{Purpose: PurposeBlock{ServiceID: "s"}}, false},
		{"figure 3", Figure3Document(), true},
	}
	for _, c := range cases {
		if err := c.doc.Validate(); (err == nil) != c.valid {
			t.Errorf("%s: Validate() = %v, want valid %v", c.name, err, c.valid)
		}
	}
}

// FuzzParseResourceDocument: an accepted document decodes to a valid
// value, and that value marshals to a document that is accepted too.
// The re-decoded value need not be equal: a fractional second may not
// survive formatting bit for bit.
func FuzzParseResourceDocument(f *testing.F) {
	for _, v := range loadVerdicts(f) {
		if v.Kind == "resource" {
			f.Add([]byte(v.Doc))
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := ParseResourceDocument(raw)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted %s, which decodes to an invalid value: %v", raw, err)
		}
		again, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseResourceDocument(again); err != nil {
			t.Fatalf("accepted %s, but not its re-marshalled form %s: %v", raw, again, err)
		}
	})
}
