package irr

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/service"
	"github.com/tippers/tippers/internal/spatial"
)

func testModel(t testing.TB) *spatial.Model {
	t.Helper()
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "dbh", Kind: spatial.KindBuilding})
	m.MustAdd("dbh", spatial.Space{ID: "dbh/2", Kind: spatial.KindFloor, Floor: 2})
	m.MustAdd("dbh/2", spatial.Space{ID: "dbh/2/2065", Kind: spatial.KindRoom, Floor: 2})
	m.MustAdd("", spatial.Space{ID: "other", Kind: spatial.KindBuilding})
	return m
}

func figure2Resource(t testing.TB) policy.Resource {
	t.Helper()
	return policy.Figure2Document().Resources[0]
}

func TestPublishAndDocument(t *testing.T) {
	r := NewRegistry("dbh-irr", testModel(t))
	if err := r.Publish("dbh", figure2Resource(t)); err != nil {
		t.Fatal(err)
	}
	roomRes := figure2Resource(t)
	roomRes.Info.Name = "Camera in room 2065"
	if err := r.Publish("dbh/2/2065", roomRes); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Query at the room: both the building-wide and the room policy apply.
	doc := r.Document("dbh/2/2065")
	if len(doc.Resources) != 2 {
		t.Errorf("room query = %d resources", len(doc.Resources))
	}
	// Query at the building: room resources are inside it.
	doc = r.Document("dbh")
	if len(doc.Resources) != 2 {
		t.Errorf("building query = %d resources", len(doc.Resources))
	}
	// Query at an unrelated building: nothing.
	doc = r.Document("other")
	if len(doc.Resources) != 0 {
		t.Errorf("unrelated query = %d resources", len(doc.Resources))
	}
	// Empty query returns everything.
	if got := r.Document(""); len(got.Resources) != 2 {
		t.Errorf("empty query = %d resources", len(got.Resources))
	}
}

func TestPublishRejectsInvalid(t *testing.T) {
	r := NewRegistry("dbh-irr", testModel(t))
	if err := r.Publish("dbh", policy.Resource{}); err == nil {
		t.Error("nameless resource accepted")
	}
	if err := r.PublishService(policy.ServicePolicyDoc{}); err == nil {
		t.Error("empty service policy accepted")
	}
	// Valid shape but no service_id.
	doc := policy.Figure3Document()
	doc.Purpose.ServiceID = ""
	if err := r.PublishService(doc); err == nil {
		t.Error("service policy without service_id accepted")
	}
}

func TestServiceDocsSorted(t *testing.T) {
	r := NewRegistry("dbh-irr", testModel(t))
	if err := r.PublishService(service.SmartMeeting().PolicyDoc()); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishService(service.Concierge().PolicyDoc()); err != nil {
		t.Fatal(err)
	}
	docs := r.ServiceDocs()
	if len(docs) != 2 || docs[0].Purpose.ServiceID != "concierge" {
		t.Errorf("ServiceDocs = %+v", docs)
	}
	// Republishing replaces.
	if err := r.PublishService(service.Concierge().PolicyDoc()); err != nil {
		t.Fatal(err)
	}
	if len(r.ServiceDocs()) != 2 {
		t.Error("republish duplicated")
	}
}

func TestAutoGenerate(t *testing.T) {
	m := testModel(t)
	pols := []policy.BuildingPolicy{
		policy.Policy2EmergencyLocation("dbh"),
		policy.Policy1Comfort("dbh", 70), // automation: not advertised
	}
	r := NewRegistry("dbh-irr", m)
	err := AutoGenerate(r, pols, AutoGenerateConfig{
		BuildingID:   "dbh",
		BuildingName: "Donald Bren Hall",
		OwnerName:    "UCI",
		SettingsBase: "https://tippers.example/settings",
	})
	if err != nil {
		t.Fatal(err)
	}
	// The automation policy is not advertised.
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	doc := r.Document("dbh")
	if name := doc.Resources[0].Info.Name; name != "Location tracking in DBH" {
		t.Errorf("policy ad = %q", name)
	}
	// Publish validated every generated resource.
	if err := doc.Validate(); err != nil {
		t.Errorf("generated document invalid: %v", err)
	}
}

func TestHTTPRoundTrip(t *testing.T) {
	m := testModel(t)
	r := NewRegistry("dbh-irr", m)
	if err := r.Publish("dbh", figure2Resource(t)); err != nil {
		t.Fatal(err)
	}
	if err := r.PublishService(service.Concierge().PolicyDoc()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	c := NewClient(srv.URL, nil)
	ctx := context.Background()

	wk, err := c.WellKnown(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wk.Name != "dbh-irr" || len(wk.Coverage) != 1 || wk.Coverage[0] != "dbh" {
		t.Errorf("well-known = %+v", wk)
	}

	doc, err := c.Resources(ctx, "dbh/2/2065")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Resources) != 1 || doc.Resources[0].Info.Name != "Location tracking in DBH" {
		t.Errorf("resources = %+v", doc.Resources)
	}

	if _, err := c.Resources(ctx, "other"); err == nil {
		t.Error("404 for uncovered space not surfaced")
	}

	svcs, err := c.Services(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(svcs) != 1 || svcs[0].Purpose.ServiceID != "concierge" {
		t.Errorf("services = %+v", svcs)
	}
}

func TestClientRejectsMalformedServer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// Valid JSON, invalid documents: resources missing info blocks,
		// services missing observations.
		switch req.URL.Path {
		case "/resources":
			w.Write([]byte(`{"resources":[{}]}`))
		case "/services":
			w.Write([]byte(`[{"purpose":{}}]`))
		default:
			w.Write([]byte(`garbage`))
		}
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	ctx := context.Background()
	if _, err := c.Resources(ctx, ""); err == nil {
		t.Error("malformed resource document accepted")
	}
	if _, err := c.Services(ctx); err == nil {
		t.Error("malformed services accepted")
	}
	if _, err := c.WellKnown(ctx); err == nil {
		t.Error("garbage well-known accepted")
	}
}

func TestDiscover(t *testing.T) {
	m := testModel(t)
	dbh := NewRegistry("dbh-irr", m)
	if err := dbh.Publish("dbh", figure2Resource(t)); err != nil {
		t.Fatal(err)
	}
	other := NewRegistry("other-irr", m)
	res := figure2Resource(t)
	res.Info.Name = "Other building cameras"
	if err := other.Publish("other", res); err != nil {
		t.Fatal(err)
	}
	s1 := httptest.NewServer(dbh.Handler())
	defer s1.Close()
	s2 := httptest.NewServer(other.Handler())
	defer s2.Close()

	covers := func(coverage, spaceID string) bool {
		in, err := m.Contained(spaceID, coverage)
		return err == nil && in
	}
	ctx := context.Background()
	got := Discover(ctx, []string{s1.URL, s2.URL, "http://127.0.0.1:1/dead"}, "dbh/2/2065", covers)
	if len(got) != 1 || got[0].BaseURL() != s1.URL {
		t.Fatalf("Discover = %d clients", len(got))
	}
	// Empty space discovers all live registries.
	if got := Discover(ctx, []string{s1.URL, s2.URL}, "", covers); len(got) != 2 {
		t.Errorf("Discover(all) = %d", len(got))
	}
}
