// Package stream implements policy-enforced live streaming: the
// continuous side of the paper's Figure-1 loop. A subscriber (a
// service, an IoTA, a remote client) registers a filter and a
// requester identity once; thereafter every matching observation is
// pushed to it transformed through the full enforce/privacy pipeline
// for *that* requester — deny, coarsen, noise, pseudonymize — exactly
// as the one-shot query path would have released it.
//
// The hub reads its live rows from the observation store, the same
// log the one-shot query path reads: one goroutine keeps a cursor and,
// each time the ingest pipeline says rows were appended (Wake), scans
// the store past it and offers every row to the observation
// subscriptions. A row erased before the scan reaches it is never
// streamed, and a hub that falls behind catches up from the store,
// sealed segments included, without losing a row. On top of that it
// solves three problems:
//
//   - Per-subscriber enforcement at fan-out cost. Deciding N
//     subscribers × M events calls Config.Decide N×M times; the hub
//     holds no decisions of its own, so identical flows collapse to a
//     hit in the enforcement engine's memo and a rule change governs
//     the very next event with nothing here to flush.
//   - Backpressure. Each subscription owns a bounded ring with a
//     selectable policy: drop-oldest (a gap marker tells the consumer
//     what range it lost), block-publisher-with-deadline, or
//     disconnect (the consumer reconnects and resumes).
//   - Resume. Observation cursors are the durable store's sequence
//     numbers, so a reconnecting subscriber replays its gap from the
//     store (in bounded pages) and splices onto the live feed without
//     duplicates or holes. See Subscription.Next for the splice
//     invariant.
//
// Notifications and conflicts are streamable too. Their producers
// push them directly (PublishNotification, PublishConflict); their
// cursors are hub-local (there is no durable log behind them), so those
// topics are live-only.
package stream

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

// Streamable topics.
const (
	TopicObservations  = "observations"
	TopicNotifications = "notifications"
	TopicConflicts     = "conflicts"
)

// Backpressure selects what happens when a subscription's ring is
// full and another event arrives.
type Backpressure int

const (
	// PolicyDefault selects the hub's configured default (itself
	// DropOldest when unconfigured).
	PolicyDefault Backpressure = iota
	// DropOldest evicts the oldest buffered event and records a gap
	// marker so the consumer knows which cursor range it lost.
	DropOldest
	// Block makes the hub wait for ring space up to the
	// subscription's BlockTimeout, then falls back to DropOldest.
	Block
	// Disconnect closes the subscription (Next returns
	// ErrSlowConsumer); the consumer reconnects with its cursor and
	// replays the gap from the durable store.
	Disconnect
)

// String names the policy for flags and wire parameters.
func (p Backpressure) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case Block:
		return "block"
	case Disconnect:
		return "disconnect"
	default:
		return "default"
	}
}

// ParseBackpressure parses a policy name as accepted on flags and in
// stream query parameters.
func ParseBackpressure(s string) (Backpressure, error) {
	switch s {
	case "", "default":
		return PolicyDefault, nil
	case "drop", "drop-oldest":
		return DropOldest, nil
	case "block":
		return Block, nil
	case "disconnect":
		return Disconnect, nil
	default:
		return 0, fmt.Errorf("stream: unknown backpressure policy %q (want drop-oldest, block, or disconnect)", s)
	}
}

// EventType discriminates stream events.
type EventType string

const (
	EventObservation  EventType = "observation"
	EventNotification EventType = "notification"
	EventConflict     EventType = "conflict"
	// EventGap reports that events in (GapFrom, GapTo] were evicted
	// under drop-oldest backpressure. For observation streams the lost
	// range is still in the durable store: reconnecting with the last
	// delivered cursor replays it.
	EventGap EventType = "gap"
)

// Event is one delivered stream element. Seq is the resume cursor:
// the durable store sequence number for observations, a hub-local
// sequence for notifications and conflicts (not replayable), zero for
// gap markers.
type Event struct {
	Type         EventType
	Seq          uint64
	Observation  *sensor.Observation
	Notification *enforce.Notification
	Conflict     *reasoner.Conflict
	// GapFrom/GapTo bound a gap event: cursors in (GapFrom, GapTo]
	// were lost.
	GapFrom, GapTo uint64
}

// Config wires a Hub to its collaborators. Store, Decide, and Apply
// are required.
type Config struct {
	// Store is the observation log: the hub's live feed, and what
	// resume replays.
	Store *obstore.Store
	// Decide runs the full decision pipeline for one event-request
	// (the hub fills SubjectID/Time/SpaceID/Kind from each event),
	// counting the decision and delivering its override notifications
	// exactly as the one-shot query path does. It is called once per
	// subscriber per event and must be safe for concurrent use.
	Decide func(req enforce.Request) enforce.Decision
	// Apply runs the data path (coarsen, noise) for one observation
	// under an allowed decision; ok=false suppresses it.
	Apply func(d enforce.Decision, o sensor.Observation) (released sensor.Observation, ok bool, err error)
	// Filter translates a request template into a store filter
	// (spatial subtree expansion); nil uses a field-for-field mapping
	// with exact-space matching.
	Filter func(req enforce.Request) obstore.Filter
	// Metrics receives tippers_stream_* metrics; nil creates a
	// private registry.
	Metrics *telemetry.Registry
	// Tracer records subscription lifecycle and replay-page spans for
	// subscriptions that carry a sampled Options.Trace; nil disables.
	Tracer *telemetry.Tracer
	// DefaultBuffer is the ring capacity for subscriptions that don't
	// set one (default 256).
	DefaultBuffer int
	// DefaultPolicy is the backpressure policy for subscriptions that
	// don't set one (default DropOldest).
	DefaultPolicy Backpressure
}

// Errors returned by Subscription.Next.
var (
	// ErrClosed reports a cancelled subscription or a closed hub.
	ErrClosed = errors.New("stream: subscription closed")
	// ErrSlowConsumer reports a Disconnect-policy eviction: the
	// consumer fell behind and must reconnect with its cursor.
	ErrSlowConsumer = errors.New("stream: subscription disconnected: consumer too slow")
	// ErrReplayOrder reports a store replay page that was not
	// strictly ascending in seq — the store's ordering invariant the
	// resume cursor depends on was violated.
	ErrReplayOrder = errors.New("stream: replay page out of seq order")
)

// Hub fans the store's new rows, and the notifications and conflicts
// pushed to it, out to enforced subscriptions. Its invariant: a
// subscription receives every row appended after Subscribe returns
// that is still in the store when the hub's scan reaches it.
type Hub struct {
	cfg Config

	mu      sync.RWMutex
	subs    map[int]*Subscription
	byTopic map[string][]*Subscription // immutable snapshots in subscription order, rebuilt on change
	nextID  int
	closed  bool

	wake    chan struct{} // one slot: rows were appended since the last scan
	quit    chan struct{} // closed by Close
	done    chan struct{} // closed when the dispatch goroutine exits
	headSeq atomic.Uint64 // last observation seq the hub dispatched

	localMu  sync.Mutex // orders hub-local seqs with their pushes
	localSeq uint64     // cursor space for non-durable topics

	tracer *telemetry.Tracer
	met    hubMetrics
}

type hubMetrics struct {
	delivered   *telemetry.Counter
	denied      *telemetry.Counter
	dropped     *telemetry.Counter
	gaps        *telemetry.Counter
	replayed    *telemetry.Counter
	disconnects *telemetry.Counter
}

// NewHub starts a hub over the given collaborators. Rows already in
// the store are history (Options.Replay serves them); the live feed
// starts at the store's head. Close stops the dispatch goroutine.
func NewHub(cfg Config) (*Hub, error) {
	if cfg.Store == nil || cfg.Decide == nil || cfg.Apply == nil {
		return nil, errors.New("stream: Config needs Store, Decide, and Apply")
	}
	if cfg.DefaultBuffer <= 0 {
		cfg.DefaultBuffer = 256
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	h := &Hub{
		cfg:     cfg,
		subs:    make(map[int]*Subscription),
		byTopic: make(map[string][]*Subscription),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		tracer:  cfg.Tracer,
	}
	h.registerMetrics(cfg.Metrics)
	head := cfg.Store.LastSeq()
	h.headSeq.Store(head)
	go h.run(head)
	return h, nil
}

// Wake tells the hub rows were appended to the store. It never blocks:
// a wake that arrives while one is pending folds into it.
func (h *Hub) Wake() { signal(h.wake) }

// run is the hub's one goroutine: each wake scans the store past the
// cursor, the last seq it dispatched.
func (h *Hub) run(cursor uint64) {
	defer close(h.done)
	for {
		select {
		case <-h.quit:
			return
		case <-h.wake:
			cursor = h.dispatchObservations(cursor)
		}
	}
}

// dispatchObservations offers the rows in (cursor, head] to the
// observation subscriptions and returns head. The head is read before
// the subscriptions are: a row at or below it was appended before any
// subscription missing from the snapshot had been attached, and a row
// above it is left to the wake its append sends.
func (h *Hub) dispatchObservations(cursor uint64) uint64 {
	head := h.cfg.Store.LastSeq()
	if subs := h.topicSubs(TopicObservations); len(subs) > 0 {
		h.cfg.Store.Scan(obstore.Filter{AfterSeq: cursor}, func(o *sensor.Observation, _ obstore.Codes) bool {
			if o.Seq > head {
				return false
			}
			select {
			case <-h.quit:
				return false
			default:
			}
			h.headSeq.Store(o.Seq)
			for _, s := range subs {
				s.offerObservation(*o)
			}
			return true
		})
	}
	h.headSeq.Store(head)
	return head
}

// PublishNotification streams a user's inbox entry to the
// notification subscriptions as its key enters the inbox. The push runs in the caller's goroutine
// and never waits (see Options.Policy).
func (h *Hub) PublishNotification(n enforce.Notification) {
	if subs := h.topicSubs(TopicNotifications); len(subs) > 0 {
		// Copied here, so a call with no subscriber allocates nothing.
		held := n
		h.publishLocal(subs, held.UserID, Event{Type: EventNotification, Notification: &held})
	}
}

// PublishConflict streams a freshly detected conflict to the conflict
// subscriptions, like PublishNotification.
func (h *Hub) PublishConflict(c reasoner.Conflict) {
	if subs := h.topicSubs(TopicConflicts); len(subs) > 0 {
		held := c
		h.publishLocal(subs, held.UserID, Event{Type: EventConflict, Conflict: &held})
	}
}

// publishLocal gives ev the next hub-local seq and pushes it to the
// subscriptions that want userID's events, under one lock so every
// ring holds its events in seq order.
func (h *Hub) publishLocal(subs []*Subscription, userID string, ev Event) {
	h.localMu.Lock()
	defer h.localMu.Unlock()
	h.localSeq++
	ev.Seq = h.localSeq
	for _, s := range subs {
		if s.opts.UserID == "" || s.opts.UserID == userID {
			s.push(ev)
		}
	}
}

func (h *Hub) registerMetrics(r *telemetry.Registry) {
	h.met = hubMetrics{
		delivered: r.Counter("tippers_stream_delivered_total",
			"Events delivered to stream subscribers (live and replayed)."),
		denied: r.Counter("tippers_stream_denied_total",
			"Stream events suppressed by enforcement (denied or fully degraded)."),
		dropped: r.Counter("tippers_stream_dropped_total",
			"Events evicted from subscription rings by backpressure."),
		gaps: r.Counter("tippers_stream_gaps_total",
			"Gap markers delivered after drop-oldest evictions."),
		replayed: r.Counter("tippers_stream_replayed_total",
			"Events replayed from the durable store on resume."),
		disconnects: r.Counter("tippers_stream_disconnects_total",
			"Subscriptions force-closed by the disconnect backpressure policy."),
	}
	r.GaugeFunc("tippers_stream_subscriptions",
		"Active stream subscriptions.", func() float64 {
			h.mu.RLock()
			defer h.mu.RUnlock()
			return float64(len(h.subs))
		})
	// SLO gauges: how far behind the slowest subscriber is, and how
	// long the oldest undelivered loss marker has been pending. Both
	// are zero on a healthy hub.
	r.GaugeFunc("tippers_stream_max_lag_events",
		"Worst-subscriber stream lag: dispatched head seq minus the slowest observation subscriber's last delivered seq.", func() float64 {
			head := h.headSeq.Load()
			var maxLag uint64
			h.mu.RLock()
			for _, s := range h.subs {
				if s.opts.Topic != TopicObservations {
					continue
				}
				if d := s.lastDelivered.Load(); head > d && head-d > maxLag {
					maxLag = head - d
				}
			}
			h.mu.RUnlock()
			return float64(maxLag)
		})
	r.GaugeFunc("tippers_stream_gap_age_seconds",
		"Age of the oldest pending (not yet delivered) backpressure gap across subscriptions.", func() float64 {
			var oldest int64
			h.mu.RLock()
			for _, s := range h.subs {
				if t := s.gapSince.Load(); t != 0 && (oldest == 0 || t < oldest) {
					oldest = t
				}
			}
			h.mu.RUnlock()
			if oldest == 0 {
				return 0
			}
			age := time.Since(time.Unix(0, oldest)).Seconds()
			if age < 0 {
				age = 0
			}
			return age
		})
}

// Accepting reports whether the hub still takes subscriptions (the
// readiness probe's stream-side check).
func (h *Hub) Accepting() bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return !h.closed
}

// Options configures one subscription.
type Options struct {
	// Topic selects what to stream: TopicObservations (default,
	// enforced per subscriber), TopicNotifications, or TopicConflicts.
	Topic string
	// Request is the requester identity and filter template for
	// observation streams: ServiceID, Purpose, and optionally Kind,
	// SubjectID, SpaceID, Granularity, From, To. SubjectID/Time (and
	// Kind/SpaceID when unset) are filled from each event before
	// deciding.
	Request enforce.Request
	// UserID filters notification and conflict streams to one user;
	// empty streams all.
	UserID string
	// Replay makes an observation subscription start by replaying the
	// durable store from AfterSeq (exclusive) before splicing onto the
	// live feed. Only valid for TopicObservations.
	Replay bool
	// AfterSeq is the resume cursor: the last event sequence the
	// consumer saw. Zero with Replay replays all retained history.
	AfterSeq uint64
	// Buffer is the ring capacity; 0 uses the hub default.
	Buffer int
	// Policy is the backpressure policy; PolicyDefault uses the hub
	// default. On observation streams Block stalls only the hub's
	// dispatch goroutine, and the rows wait in the store. Notifications
	// and conflicts are pushed from their producer's goroutine, which
	// must never wait, so Block becomes DropOldest on those topics.
	Policy Backpressure
	// BlockTimeout bounds a Block-policy publisher wait (default 1s).
	BlockTimeout time.Duration
	// ReplayChunk pages catch-up reads (default 1024); tests shrink
	// it.
	ReplayChunk int
	// Trace, when sampled and valid, parents subscription-lifecycle
	// and replay-page spans under the subscriber's trace (the SSE
	// handler passes the request's span context here).
	Trace telemetry.SpanContext
}

// Subscribe attaches a subscription. The caller must drain it with
// Next (one goroutine at a time) and release it with Cancel.
func (h *Hub) Subscribe(opts Options) (*Subscription, error) {
	switch opts.Topic {
	case "":
		opts.Topic = TopicObservations
	case TopicObservations, TopicNotifications, TopicConflicts:
	default:
		return nil, fmt.Errorf("stream: unknown topic %q", opts.Topic)
	}
	if opts.Replay && opts.Topic != TopicObservations {
		return nil, fmt.Errorf("stream: resume is only supported on %q: other topics have no durable log", TopicObservations)
	}
	if opts.Buffer <= 0 {
		opts.Buffer = h.cfg.DefaultBuffer
	}
	if opts.Policy == PolicyDefault {
		opts.Policy = h.cfg.DefaultPolicy
	}
	if opts.Policy == PolicyDefault || (opts.Policy == Block && opts.Topic != TopicObservations) {
		opts.Policy = DropOldest
	}
	if opts.BlockTimeout <= 0 {
		opts.BlockTimeout = time.Second
	}
	if opts.ReplayChunk <= 0 {
		opts.ReplayChunk = 1024
	}

	s := &Subscription{
		hub:    h,
		opts:   opts,
		ring:   make([]Event, opts.Buffer),
		notify: make(chan struct{}, 1),
		space:  make(chan struct{}, 1),
		done:   make(chan struct{}),
		cursor: opts.AfterSeq,
	}
	if opts.Topic == TopicObservations {
		f := obstore.Filter{
			UserID: opts.Request.SubjectID,
			Kind:   opts.Request.Kind,
			From:   opts.Request.From,
			To:     opts.Request.To,
		}
		if h.cfg.Filter != nil {
			f = h.cfg.Filter(opts.Request)
		}
		// The replay pager owns the cursor fields.
		f.AfterSeq, f.Limit = 0, 0
		s.filter = f
		s.liveFrom = h.cfg.Store.LastSeq()
		if len(f.SpaceIDs) > 0 {
			s.spaceSet = make(map[string]bool, len(f.SpaceIDs))
			for _, id := range f.SpaceIDs {
				s.spaceSet[id] = true
			}
		}
	}
	s.fetchDone = !opts.Replay || opts.Topic != TopicObservations
	s.replayDone = s.fetchDone
	// Seed the lag watermark: a resuming subscriber is behind by its
	// cursor distance; a fresh one starts even with the store's head.
	if opts.Replay {
		s.lastDelivered.Store(opts.AfterSeq)
	} else {
		s.lastDelivered.Store(s.liveFrom)
	}

	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	s.id = h.nextID
	h.nextID++
	h.subs[s.id] = s
	h.rebuildTopicsLocked()
	h.mu.Unlock()

	if opts.Trace.Sampled {
		sctx := telemetry.ContextWithSpanContext(context.Background(), opts.Trace)
		_, span := h.tracer.StartSpan(sctx, "stream.subscribe")
		span.SetAttr("topic", opts.Topic)
		span.SetAttr("service", opts.Request.ServiceID)
		span.SetAttr("replay", strconv.FormatBool(opts.Replay))
		span.SetAttrInt("after", int64(opts.AfterSeq))
		span.End()
	}
	return s, nil
}

// rebuildTopicsLocked refreshes the per-topic dispatch snapshots,
// each in subscription order. Caller holds h.mu.
func (h *Hub) rebuildTopicsLocked() {
	byTopic := make(map[string][]*Subscription, 3)
	for _, s := range h.subs {
		byTopic[s.opts.Topic] = append(byTopic[s.opts.Topic], s)
	}
	for _, subs := range byTopic {
		slices.SortFunc(subs, func(a, b *Subscription) int { return cmp.Compare(a.id, b.id) })
	}
	h.byTopic = byTopic
}

// removeSub detaches a subscription from dispatch.
func (h *Hub) removeSub(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.subs[id]; !ok {
		return
	}
	delete(h.subs, id)
	h.rebuildTopicsLocked()
}

// topicSubs returns the current dispatch snapshot for a topic. The
// slice is immutable; iterate without holding the lock.
func (h *Hub) topicSubs(topic string) []*Subscription {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.byTopic[topic]
}

// Close cancels every subscription and waits for the dispatch
// goroutine to exit.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		subs = append(subs, s)
	}
	h.subs = make(map[int]*Subscription)
	h.byTopic = make(map[string][]*Subscription)
	h.mu.Unlock()

	for _, s := range subs {
		s.close(ErrClosed)
	}
	close(h.quit)
	<-h.done
}
