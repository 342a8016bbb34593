package irr

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/telemetry"
)

// WellKnown is the discovery metadata served at /.well-known/irr,
// letting an IoTA decide whether a registry pertains to its location
// before fetching full documents.
type WellKnown struct {
	Name     string   `json:"name"`
	Coverage []string `json:"coverage"`
	// Endpoints for the full documents.
	ResourcesPath string `json:"resources_path"`
	ServicesPath  string `json:"services_path"`
}

// Handler returns the registry's HTTP interface:
//
//	GET /.well-known/irr      discovery metadata
//	GET /resources[?space=S]  Figure-2-shape resource document
//	GET /services             list of Figure-3-shape service policies
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /.well-known/irr", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, WellKnown{
			Name:          r.Name(),
			Coverage:      r.Coverage(),
			ResourcesPath: "/resources",
			ServicesPath:  "/services",
		})
	})
	mux.HandleFunc("GET /resources", func(w http.ResponseWriter, req *http.Request) {
		doc := r.Document(req.URL.Query().Get("space"))
		if len(doc.Resources) == 0 {
			// A valid document has >= 1 resource; an empty answer is a 404.
			http.Error(w, "no resources for this location", http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	})
	mux.HandleFunc("GET /services", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, http.StatusOK, r.ServiceDocs())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Client fetches and validates documents from one IRR.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the registry at baseURL. hc nil
// selects a client with a sane timeout.
func NewClient(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: baseURL, hc: hc}
}

// BaseURL returns the registry endpoint this client talks to.
func (c *Client) BaseURL() string { return c.base }

// WellKnown fetches discovery metadata.
func (c *Client) WellKnown(ctx context.Context) (WellKnown, error) {
	var wk WellKnown
	if err := c.getJSON(ctx, "/.well-known/irr", &wk); err != nil {
		return WellKnown{}, err
	}
	return wk, nil
}

// Resources fetches the resource document for a location. The
// document is validated before being returned; a registry
// serving malformed policies is treated as failed, not trusted.
func (c *Client) Resources(ctx context.Context, spaceID string) (policy.ResourceDocument, error) {
	path := "/resources"
	if spaceID != "" {
		path += "?space=" + url.QueryEscape(spaceID)
	}
	raw, err := c.getRaw(ctx, path)
	if err != nil {
		return policy.ResourceDocument{}, err
	}
	return policy.ParseResourceDocument(raw)
}

// Services fetches and validates the advertised service policies.
func (c *Client) Services(ctx context.Context) ([]policy.ServicePolicyDoc, error) {
	raw, err := c.getRaw(ctx, "/services")
	if err != nil {
		return nil, err
	}
	var rawList []json.RawMessage
	if err := json.Unmarshal(raw, &rawList); err != nil {
		return nil, fmt.Errorf("irr: services list parse: %w", err)
	}
	out := make([]policy.ServicePolicyDoc, 0, len(rawList))
	for i, r := range rawList {
		doc, err := policy.ParseServicePolicyDoc(r)
		if err != nil {
			return nil, fmt.Errorf("irr: service policy %d: %w", i, err)
		}
		out = append(out, doc)
	}
	return out, nil
}

func (c *Client) getRaw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	telemetry.InjectTraceparent(ctx, req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("irr: fetch %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 10<<20))
	if err != nil {
		return nil, fmt.Errorf("irr: read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("irr: %s returned %s", path, resp.Status)
	}
	return body, nil
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	raw, err := c.getRaw(ctx, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("irr: decode %s: %w", path, err)
	}
	return nil
}

// Discover probes candidate registry URLs and returns clients for the
// registries that cover the given space (or all registries when
// spaceID is empty). Unreachable candidates are skipped — walking
// past a dead beacon should not break the assistant. covers reports
// spatial relation; nil restricts to exact ID matches.
func Discover(ctx context.Context, candidates []string, spaceID string, covers func(coverage string, spaceID string) bool) []*Client {
	var out []*Client
	for _, base := range candidates {
		c := NewClient(base, nil)
		wk, err := c.WellKnown(ctx)
		if err != nil {
			continue
		}
		if spaceID == "" {
			out = append(out, c)
			continue
		}
		matched := false
		for _, cov := range wk.Coverage {
			if cov == spaceID || (covers != nil && covers(cov, spaceID)) {
				matched = true
				break
			}
		}
		if matched {
			out = append(out, c)
		}
	}
	return out
}
