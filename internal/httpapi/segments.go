package httpapi

import (
	"context"
	"net/http"

	"github.com/tippers/tippers/internal/colstore"
)

// SegmentsDTO is the wire form of GET /v1/segments: the columnar
// tier's health (watermark, the cold/hot split of the live
// observations, prune ratios, tombstones, segment lag) plus every sealed
// segment's zone-map summary.
type SegmentsDTO struct {
	// Enabled is always true: every node runs the columnar tier. The
	// field stays on the wire for clients that read it. Segments is
	// never null.
	Enabled  bool                   `json:"enabled"`
	Stats    colstore.TierStats     `json:"stats"`
	Segments []colstore.SegmentInfo `json:"segments"`
}

// handleSegments serves GET /v1/segments: the operator view of the
// columnar tier. Segment rows carry only zone-map metadata (row
// counts, seq/time bounds, dimension cardinalities) — never
// observation contents — so the endpoint releases nothing
// enforcement would gate.
func (s *Server) handleSegments(w http.ResponseWriter, req *http.Request) {
	cs := s.bms.Columnar()
	writeJSON(w, http.StatusOK, SegmentsDTO{Enabled: true, Stats: cs.Stats(), Segments: cs.Segments()})
}

// Segments fetches the columnar tier's segment inventory and stats.
func (c *Client) Segments(ctx context.Context) (SegmentsDTO, error) {
	var out SegmentsDTO
	err := c.do(ctx, http.MethodGet, "/v1/segments", nil, &out)
	return out, err
}
