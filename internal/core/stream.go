package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// This file keeps the original channel-based streaming API as a thin
// adapter over the stream hub (internal/stream). The raw observation
// bus is internal — handing it to services would bypass every
// preference — so subscriptions go through the same decision pipeline
// as queries: each event is decided for its subject and transformed
// per the effective rule before delivery. The hub adds what the old
// inline implementation lacked: selectable backpressure and
// cursor-based resume (reachable via BMS.Streams for callers that want
// events rather than a channel).

// Stream is one service's enforced live subscription.
type Stream struct {
	// C delivers released (possibly degraded) observations.
	C <-chan sensor.Observation
	// Cancel detaches the stream. Safe to call multiple times; C is
	// closed afterwards.
	Cancel func()
}

// StreamStats counts a stream's enforcement outcomes.
type StreamStats struct {
	Delivered uint64
	Denied    uint64
	Dropped   uint64 // subscriber too slow
}

// Subscribe attaches an enforced live stream for a service: every
// observation of the requested kind is decided against the subject's
// preferences (and the building's overrides) at event time, exactly
// like a query, then degraded and delivered. Unattributed
// observations are decided with an empty subject, so default-deny
// deployments suppress them too.
//
// The req template supplies ServiceID, Purpose, Kind, and optionally
// SpaceID/Granularity; Subject and Time are taken from each event.
func (b *BMS) Subscribe(req enforce.Request, buffer int) (*Stream, func() StreamStats, error) {
	if req.Kind == "" {
		return nil, nil, fmt.Errorf("core: streaming subscription needs a kind")
	}
	if buffer < 1 {
		buffer = 64
	}
	sub, err := b.streams.Subscribe(stream.Options{
		Topic:   stream.TopicObservations,
		Request: req,
		Buffer:  buffer,
		Policy:  stream.DropOldest,
	})
	if err != nil {
		return nil, nil, err
	}

	out := make(chan sensor.Observation, buffer)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(out)
		defer close(done)
		for {
			ev, err := sub.Next(context.Background())
			if err != nil {
				return
			}
			if ev.Type != stream.EventObservation {
				continue
			}
			select {
			case out <- *ev.Observation:
			case <-stop:
				return
			}
		}
	}()

	var once sync.Once
	st := &Stream{
		C: out,
		Cancel: func() {
			once.Do(func() {
				sub.Cancel()
				close(stop)
			})
			<-done
		},
	}
	statsFn := func() StreamStats {
		s := sub.Stats()
		return StreamStats{Delivered: s.Delivered, Denied: s.Denied, Dropped: s.Dropped}
	}
	return st, statsFn, nil
}
