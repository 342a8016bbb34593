package main

// Driver-side spans. They are recorded from outside the node, around
// calls into each layer's public API, kept in memory and written out
// when the run ends. A layer's self time is its span minus the spans
// it caused; a root span's self time (a ServeHTTP call minus every
// layer call replayed for it) is reported as core.glue.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call. Per-row callbacks (a query's Decide and
// Apply hooks) are coalesced into one span per op whose duration is
// the sum of its calls.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
}

// rootSpan names the ServeHTTP call an op's layer spans hang under.
const rootSpan = "http"

type recorder struct {
	t0    time.Time
	spans []span
}

// add records a span and returns its ID (IDs start at 1).
func (r *recorder) add(name string, op, parent int, start time.Time, dur time.Duration, calls int) int {
	if r.t0.IsZero() {
		r.t0 = start
	}
	s := start.Sub(r.t0).Nanoseconds()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: s, End: s + dur.Nanoseconds(), Calls: calls})
	return id
}

// selfTimes returns each span's duration minus its children's, in
// span order.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent > 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// layerBusy sums self time by span name; root spans' self time lands
// under "core.glue".
func layerBusy(spans []span) map[string]time.Duration {
	busy := make(map[string]time.Duration)
	for i, self := range selfTimes(spans) {
		name := spans[i].Name
		if name == rootSpan {
			name = "core.glue"
		}
		busy[name] += self
	}
	return busy
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
