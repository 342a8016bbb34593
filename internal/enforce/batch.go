package enforce

// This file is the enforcement side of the parallel query path:
// post-filter decisions for a query result evaluated concurrently
// instead of one at a time. The paper's §V.C cost concern is worst on
// aggregate requests — one occupancy query over a busy floor decides
// every candidate subject — so the aggregate path
// (core.RequestOccupancy) batches those decisions across a bounded
// worker pool. Engines already guarantee concurrent Decide safety
// (see Engine), and the engine's memo is shared by the pool,
// so fanning out reuses the decision cache rather than defeating it.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tippers/tippers/internal/profile"
)

// BatchItem pairs one request with its subject's profile groups for
// DecideBatch.
type BatchItem struct {
	Req    Request
	Groups []profile.Group
}

// BatchOptions tunes DecideBatch.
type BatchOptions struct {
	// Parallelism bounds concurrent Decide calls; <= 0 selects
	// GOMAXPROCS.
	Parallelism int
	// Observe, when set, receives every decision and its latency. It
	// is called from worker goroutines and must be safe for
	// concurrent use (telemetry histograms and counters are).
	Observe func(Decision, time.Duration)
}

// DecideBatch evaluates the items on a bounded worker pool and
// returns their decisions in item order. Decisions are exactly those
// the equivalent Decide loop would produce — the pool only reorders
// the evaluation, never the results.
func DecideBatch(e Engine, items []BatchItem, opts BatchOptions) []Decision {
	return AppendDecideBatch(nil, e, items, opts)
}

// AppendDecideBatch is DecideBatch appending the decisions to dst, so
// a caller that batches repeatedly (the occupancy miss path) reuses
// one buffer. Decisions reference rule-owned strings and slices: clear
// the buffer before parking it.
func AppendDecideBatch(dst []Decision, e Engine, items []BatchItem, opts BatchOptions) []Decision {
	n := len(dst)
	dst = slices.Grow(dst, len(items))[:n+len(items)]
	out := dst[n:]
	if len(items) == 0 {
		return dst
	}
	decideOne := func(i int) {
		t0 := time.Now()
		d := e.Decide(items[i].Req, items[i].Groups)
		if opts.Observe != nil {
			opts.Observe(d, time.Since(t0))
		}
		out[i] = d
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			decideOne(i)
		}
		return dst
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				decideOne(i)
			}
		}()
	}
	wg.Wait()
	return dst
}
