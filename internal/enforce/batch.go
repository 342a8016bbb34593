package enforce

// This file decides a batch of requests on a bounded worker pool. No
// read of the node batches — each decides in the query executor's scan
// as it meets a subject's window class — so DecideBatch serves the
// benchmark's traced replay and tests. Engines guarantee concurrent
// Decide safety (see Engine), and the pool shares the engine's memo.

import (
	"runtime"
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
	out := make([]Decision, len(items))
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(items))
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
				t0 := time.Now()
				d := e.Decide(items[i].Req, items[i].Groups)
				if opts.Observe != nil {
					opts.Observe(d, time.Since(t0))
				}
				out[i] = d
			}
		}()
	}
	wg.Wait()
	return out
}
