package stream

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/telemetry"
)

// Subscription is one consumer's view of the stream: a bounded ring
// fed by the hub's dispatch loop, drained by Next. Next must be
// called from one goroutine at a time; push and Next are safe to run
// concurrently.
type Subscription struct {
	hub  *Hub
	id   int
	opts Options

	// filter/spaceSet mirror the one-shot query path's store filter so
	// live matching and replay agree on which observations are in
	// scope.
	filter   obstore.Filter
	spaceSet map[string]bool
	// liveFrom is the store's head when the subscription was made: the
	// hub's scan may still be behind it, but rows at or below it
	// predate the subscription (replay serves them), so the live feed
	// skips them.
	liveFrom uint64

	mu       sync.Mutex
	ring     []Event
	start    int
	count    int
	gapLo    uint64 // first lost cursor of the pending gap (0 = none)
	gapHi    uint64 // last lost cursor of the pending gap
	closed   bool
	closeErr error

	notify chan struct{} // 1-buffered: events or close happened
	space  chan struct{} // 1-buffered: ring space freed (Block policy)
	done   chan struct{} // closed on close; wakes blocked publishers

	// Replay state, touched only by Next (the single consumer).
	// Invariant after fetchDone: an observation was replayed iff its
	// Seq <= maxReplaySeq, so live ring events at or below that cursor
	// are duplicates and are skipped. Correctness relies on the hub
	// reading its live rows from the same store: the subscription is
	// attached to the hub before the first store page is read, and the
	// hub's scan reaches every row appended after that, so a row the
	// ring misses was already in the store when replay read past it.
	fetchDone    bool
	replayDone   bool
	cursor       uint64
	maxReplaySeq uint64
	replayBuf    []Event

	// lastDelivered is the highest observation seq handed to the
	// consumer (monotonic); the hub's max-lag gauge reads it.
	lastDelivered atomic.Uint64
	// gapSince is when the current pending gap opened (UnixNano; 0 =
	// none); the hub's gap-age gauge reads it.
	gapSince atomic.Int64

	stats subStats
}

// noteDelivered advances the delivered-seq watermark (monotonic max).
func (s *Subscription) noteDelivered(ev Event) {
	if ev.Type != EventObservation {
		return
	}
	for {
		old := s.lastDelivered.Load()
		if ev.Seq <= old || s.lastDelivered.CompareAndSwap(old, ev.Seq) {
			return
		}
	}
}

type subStats struct {
	delivered atomic.Uint64
	denied    atomic.Uint64
	dropped   atomic.Uint64
	replayed  atomic.Uint64
	gaps      atomic.Uint64
}

// Stats is a point-in-time snapshot of one subscription's counters.
type Stats struct {
	// Delivered counts events handed to the consumer by Next,
	// replayed ones included.
	Delivered uint64
	// Denied counts matching observations suppressed by enforcement.
	Denied uint64
	// Dropped counts events evicted from the ring by backpressure.
	Dropped uint64
	// Replayed counts observations served from the durable store.
	Replayed uint64
	// Gaps counts gap markers delivered.
	Gaps uint64
}

// Stats snapshots the subscription's counters.
func (s *Subscription) Stats() Stats {
	return Stats{
		Delivered: s.stats.delivered.Load(),
		Denied:    s.stats.denied.Load(),
		Dropped:   s.stats.dropped.Load(),
		Replayed:  s.stats.replayed.Load(),
		Gaps:      s.stats.gaps.Load(),
	}
}

// Cancel detaches the subscription. Buffered events remain readable;
// after they drain, Next returns ErrClosed. Idempotent.
func (s *Subscription) Cancel() {
	s.hub.removeSub(s.id)
	s.close(ErrClosed)
}

func (s *Subscription) close(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked(err)
}

func (s *Subscription) closeLocked(err error) {
	if s.closed {
		return
	}
	s.closed = true
	s.closeErr = err
	close(s.done)
	signal(s.notify)
}

// signal does a non-blocking send on a 1-buffered wakeup channel.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// offerObservation runs one live observation through the
// subscription's filter and the enforcement pipeline, then pushes the
// released event. Called from the hub's dispatch loop.
func (s *Subscription) offerObservation(o sensor.Observation) {
	if o.Seq <= s.liveFrom || !s.matchesLive(o) {
		return
	}
	ev, ok := s.enforceObservation(o)
	if !ok {
		return
	}
	s.push(ev)
}

// matchesLive applies the subscription's store filter to a live
// observation so the stream's scope is identical to the one-shot
// query path's.
func (s *Subscription) matchesLive(o sensor.Observation) bool {
	f := &s.filter
	if f.Kind != "" && o.Kind != f.Kind {
		return false
	}
	if f.UserID != "" && o.UserID != f.UserID {
		return false
	}
	if f.SensorID != "" && o.SensorID != f.SensorID {
		return false
	}
	if s.spaceSet != nil && !s.spaceSet[o.SpaceID] {
		return false
	}
	if !f.From.IsZero() && o.Time.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !o.Time.Before(f.To) {
		return false
	}
	return true
}

// enforceObservation decides and applies the pipeline for one
// observation on behalf of this subscription's requester. It returns
// the released (possibly degraded) event, or ok=false when
// enforcement suppressed the observation. Safe for concurrent use
// (live dispatch and replay may overlap).
func (s *Subscription) enforceObservation(o sensor.Observation) (Event, bool) {
	req := s.opts.Request
	req.SubjectID = o.UserID
	req.Time = o.Time
	if req.SpaceID == "" {
		req.SpaceID = o.SpaceID
	}
	if req.Kind == "" {
		req.Kind = o.Kind
	}
	d := s.hub.cfg.Decide(req)
	if !d.Allowed {
		s.stats.denied.Add(1)
		s.hub.met.denied.Inc()
		return Event{}, false
	}
	rel, ok, err := s.hub.cfg.Apply(d, o)
	if err != nil || !ok {
		s.stats.denied.Add(1)
		s.hub.met.denied.Inc()
		return Event{}, false
	}
	rel.Seq = o.Seq // the cursor must survive the transform
	return Event{Type: EventObservation, Seq: o.Seq, Observation: &rel}, true
}

// push appends an event to the ring, applying the backpressure policy
// when full.
func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.count < len(s.ring) {
		s.insertLocked(ev)
		s.mu.Unlock()
		signal(s.notify)
		return
	}
	switch s.opts.Policy {
	case Block:
		deadline := time.Now().Add(s.opts.BlockTimeout)
		for s.count == len(s.ring) && !s.closed {
			s.mu.Unlock()
			wait := time.Until(deadline)
			if wait <= 0 {
				s.mu.Lock()
				break
			}
			t := time.NewTimer(wait)
			select {
			case <-s.space:
				t.Stop()
			case <-t.C:
			case <-s.done:
				t.Stop()
			}
			s.mu.Lock()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		if s.count == len(s.ring) {
			// Deadline expired: shed the oldest rather than stall the
			// pipeline forever.
			s.evictLocked()
		}
		s.insertLocked(ev)
		s.mu.Unlock()
		signal(s.notify)
	case Disconnect:
		s.closeLocked(ErrSlowConsumer)
		s.mu.Unlock()
		s.hub.removeSub(s.id)
		s.hub.met.disconnects.Inc()
	default: // DropOldest
		s.evictLocked()
		s.insertLocked(ev)
		s.mu.Unlock()
		signal(s.notify)
	}
}

func (s *Subscription) insertLocked(ev Event) {
	s.ring[(s.start+s.count)%len(s.ring)] = ev
	s.count++
}

// evictLocked discards the oldest ring entry, folding it into the
// pending gap. Evicting a gap marker merges its bounds instead of
// counting a drop.
func (s *Subscription) evictLocked() {
	if s.gapHi == 0 {
		s.gapSince.Store(time.Now().UnixNano())
	}
	ev := s.ring[s.start]
	s.ring[s.start] = Event{}
	s.start = (s.start + 1) % len(s.ring)
	s.count--
	if ev.Type == EventGap {
		if s.gapLo == 0 || (ev.GapFrom > 0 && ev.GapFrom+1 < s.gapLo) {
			s.gapLo = ev.GapFrom + 1
		}
		if ev.GapTo > s.gapHi {
			s.gapHi = ev.GapTo
		}
		return
	}
	if s.gapLo == 0 {
		s.gapLo = ev.Seq
	}
	if ev.Seq > s.gapHi {
		s.gapHi = ev.Seq
	}
	s.stats.dropped.Add(1)
	s.hub.met.dropped.Inc()
}

// takeGapLocked consumes the pending gap, clamped against the replay
// watermark: a "lost" range the replay already served is no gap at
// all.
func (s *Subscription) takeGapLocked() (Event, bool) {
	if s.gapHi == 0 {
		return Event{}, false
	}
	lo, hi := s.gapLo, s.gapHi
	s.gapLo, s.gapHi = 0, 0
	s.gapSince.Store(0)
	if hi <= s.maxReplaySeq {
		return Event{}, false
	}
	if lo <= s.maxReplaySeq {
		lo = s.maxReplaySeq + 1
	}
	// GapFrom is exclusive: cursors in (GapFrom, GapTo] were lost.
	return Event{Type: EventGap, GapFrom: lo - 1, GapTo: hi}, true
}

// Next blocks until the next event is available and returns it. The
// delivery order is: replayed history (when Options.Replay is set),
// then live events, skipping live duplicates of replayed cursors; a
// pending gap marker is delivered before the event that follows it.
// It returns ErrClosed after Cancel or hub shutdown, ErrSlowConsumer
// after a disconnect-policy eviction, or the context's error.
func (s *Subscription) Next(ctx context.Context) (Event, error) {
	if err := ctx.Err(); err != nil {
		return Event{}, err
	}
	for {
		if !s.replayDone {
			if ev, ok := s.nextReplay(); ok {
				s.stats.delivered.Add(1)
				s.hub.met.delivered.Inc()
				s.noteDelivered(ev)
				return ev, nil
			}
		}
		s.mu.Lock()
		if ev, ok := s.takeGapLocked(); ok {
			s.mu.Unlock()
			s.stats.gaps.Add(1)
			s.hub.met.gaps.Inc()
			return ev, nil
		}
		for s.count > 0 {
			ev := s.popLocked()
			s.mu.Unlock()
			signal(s.space)
			if ev.Type == EventObservation && ev.Seq <= s.maxReplaySeq {
				// Already served by replay: the splice's dedupe rule.
				s.mu.Lock()
				continue
			}
			s.stats.delivered.Add(1)
			s.hub.met.delivered.Inc()
			s.noteDelivered(ev)
			return ev, nil
		}
		if s.closed {
			err := s.closeErr
			s.mu.Unlock()
			return Event{}, err
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return Event{}, ctx.Err()
		case <-s.notify:
		}
	}
}

func (s *Subscription) popLocked() Event {
	ev := s.ring[s.start]
	s.ring[s.start] = Event{}
	s.start = (s.start + 1) % len(s.ring)
	s.count--
	return ev
}

// nextReplay serves the catch-up phase: durable history after the
// resume cursor, fetched in bounded pages and enforced through the
// same pipeline as live events. When the store is exhausted it fixes
// maxReplaySeq — the dedupe watermark for the live splice — and
// reports done.
func (s *Subscription) nextReplay() (Event, bool) {
	for {
		if len(s.replayBuf) > 0 {
			ev := s.replayBuf[0]
			s.replayBuf[0] = Event{}
			s.replayBuf = s.replayBuf[1:]
			return ev, true
		}
		if s.fetchDone {
			s.replayDone = true
			return Event{}, false
		}
		f := s.filter
		f.AfterSeq = s.cursor
		f.Limit = s.opts.ReplayChunk
		var span *telemetry.Span
		if s.opts.Trace.Sampled {
			rctx := telemetry.ContextWithSpanContext(context.Background(), s.opts.Trace)
			_, span = s.hub.tracer.StartSpan(rctx, "stream.replay_page")
			span.SetAttrInt("after", int64(s.cursor))
		}
		// The page is enforced as the store walks it. Seq-ordering
		// assertion: resume correctness hangs on the store handing back
		// strictly ascending seqs past the cursor. A violation would
		// corrupt the cursor and the dedupe watermark, so fail the
		// subscription loudly instead of delivering out of order.
		n, ordered := 0, true
		s.hub.cfg.Store.Scan(f, func(o *sensor.Observation, _ obstore.Codes) bool {
			if o.Seq <= s.cursor {
				ordered = false
				return false
			}
			s.cursor = o.Seq
			n++
			if ev, ok := s.enforceObservation(*o); ok {
				s.replayBuf = append(s.replayBuf, ev)
				s.stats.replayed.Add(1)
				s.hub.met.replayed.Inc()
			}
			return true
		})
		span.SetAttrInt("count", int64(n))
		span.End()
		if !ordered {
			s.replayBuf = nil
			s.close(ErrReplayOrder)
			s.fetchDone, s.replayDone = true, true
			return Event{}, false
		}
		if n < s.opts.ReplayChunk {
			// A short page means the store had nothing newer when we
			// read it; everything after s.cursor reaches us live.
			s.fetchDone = true
			s.mu.Lock()
			s.maxReplaySeq = s.cursor
			s.mu.Unlock()
		}
	}
}
