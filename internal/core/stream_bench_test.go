package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// BenchmarkStreamFanout measures the per-event cost of fanning one
// ingest stream out to N enforced subscribers. Every subscriber's
// decision goes to the engine, whose memo collapses identical flows:
// the fan-out's marginal cost is a memo hit plus a ring push, not a
// policy evaluation. decides/event (engine-memo misses per ingested
// event) is the count scripts/bench.sh gates, per subscriber count.
// Expected: one miss for the whole run at 1, 16 and 64 subscribers
// alike — 1/b.N, 0.00001 at the script's 100000 iterations — so policy
// evaluations per delivery fall as 1/subscribers; without the shared
// memo it would read one per delivery, 1, 16 and 64 per event.
// TestStreamFanoutSharesEngineMemo is the test form.
func BenchmarkStreamFanout(b *testing.B) {
	for _, nSubs := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("subs=%d", nSubs), func(b *testing.B) {
			f := newFixture(b)
			if err := f.bms.SetPreference(policy.CoarseLocationPreference("mary", "concierge")); err != nil {
				b.Fatal(err)
			}
			req := enforce.Request{
				ServiceID: "concierge",
				Purpose:   policy.PurposeProvidingService,
				Kind:      sensor.ObsWiFiConnect,
			}
			subs := make([]*stream.Subscription, nSubs)
			for i := range subs {
				subs[i] = subscribe(b, f, req, 4096)
				go func(sub *stream.Subscription) {
					for {
						if _, err := sub.Next(context.Background()); err != nil {
							return
						}
					}
				}(subs[i])
			}
			obs := f.wifiObs("aa:00:00:00:00:01", "ap-2", 0)

			// Pace the publisher so no subscription ring overflows: the
			// benchmark measures enforcement fan-out, not loss.
			const window = 256
			waitUntil := func(target uint64) {
				deadline := time.Now().Add(30 * time.Second)
				for {
					lagging := false
					for _, sub := range subs {
						if sub.Stats().Delivered < target {
							lagging = true
							break
						}
					}
					if !lagging {
						return
					}
					if time.Now().After(deadline) {
						b.Fatalf("fan-out stalled waiting for %d deliveries per subscriber", target)
					}
					runtime.Gosched()
				}
			}

			engine := f.bms.Engine().(*enforce.Compiled)
			_, missesBefore := engine.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.bms.Ingest(obs); err != nil {
					b.Fatal(err)
				}
				if (i+1)%window == 0 && i+1 > 2*window {
					waitUntil(uint64(i + 1 - 2*window))
				}
			}
			waitUntil(uint64(b.N))
			b.StopTimer()
			_, missesAfter := engine.Stats()
			b.ReportMetric(float64(missesAfter-missesBefore)/float64(b.N), "decides/event")
			b.ReportMetric(float64(nSubs*b.N)/b.Elapsed().Seconds(), "deliveries/s")
		})
	}
}
