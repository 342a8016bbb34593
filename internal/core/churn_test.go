package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// TestEngineRecompileUnderChurn hammers the compiled engine through
// the BMS mutation path while deciders, a batch decider, and a live
// stream subscriber run concurrently. Each mutator owns one user and
// repeatedly replaces that user's single preference, encoding a
// monotonically increasing version in Rule.NoiseEpsilon; it publishes
// the version only after SetPreference returns. Deciders read the
// published version *before* deciding, so any decision carrying an
// older epsilon proves a stale compiled index or memo entry was
// served after the mutation committed. Run under -race this also
// shakes out unsynchronized access in the recompile path itself.
func TestEngineRecompileUnderChurn(t *testing.T) {
	const (
		mutators     = 4
		deciders     = 4
		versions     = 150 // minimum preference replacements per mutator
		observations = 300 // events pushed through the live stream
	)

	churnUser := func(i int) string { return fmt.Sprintf("churn-%d", i) }
	churnPref := func(i int) string { return fmt.Sprintf("churn-pref-%d", i) }

	f := newFixtureWith(t, func(cfg *Config) {
		for i := 0; i < mutators; i++ {
			cfg.Users.MustAdd(profile.User{
				ID: churnUser(i), Name: fmt.Sprintf("Churn %d", i),
				Profiles:   []profile.Profile{{Group: profile.GroupGradStudent}},
				DeviceMACs: []string{fmt.Sprintf("cc:00:00:00:00:%02x", i+1)},
			})
		}
	})

	setVersion := func(i, v int) {
		t.Helper()
		err := f.bms.SetPreference(policy.Preference{
			ID:     churnPref(i),
			UserID: churnUser(i),
			Name:   "churn",
			Scope:  policy.Scope{ServiceID: "concierge"},
			Rule: policy.Rule{
				Action:         policy.ActionLimit,
				MaxGranularity: policy.GranBuilding,
				NoiseEpsilon:   float64(v),
			},
			Source: "explicit",
		})
		if err != nil {
			t.Errorf("SetPreference v%d for %s: %v", v, churnUser(i), err)
		}
	}

	// committed[i] holds the highest version whose SetPreference has
	// returned for churn-i. Seed version 1 so every decide matches.
	var committed [mutators]atomic.Int64
	for i := 0; i < mutators; i++ {
		setVersion(i, 1)
		committed[i].Store(1)
	}

	churnReq := func(i int) enforce.Request {
		return enforce.Request{
			ServiceID:   "concierge",
			SubjectID:   churnUser(i),
			Kind:        sensor.ObsWiFiConnect,
			Purpose:     policy.PurposeProvidingService,
			Granularity: policy.GranExact,
			Time:        f.now, // fixed time keeps memo keys stable across calls
		}
	}

	checkDecision := func(who string, i int, floor int64, d enforce.Decision) {
		t.Helper()
		if !d.Allowed {
			t.Errorf("%s: churn-%d denied: %s", who, i, d.DenyReason)
			return
		}
		if d.Effective.Action != policy.ActionLimit {
			t.Errorf("%s: churn-%d action = %v, want limit", who, i, d.Effective.Action)
			return
		}
		// Versions only grow, so a decision older than the version
		// committed before the call is a stale index/memo read.
		if got := int64(d.Effective.NoiseEpsilon); got < floor {
			t.Errorf("%s: churn-%d served stale decision: epsilon %d < committed %d",
				who, i, got, floor)
		}
	}

	var wg sync.WaitGroup
	churning := make(chan struct{})   // closed when every mutator is done
	ingestDone := make(chan struct{}) // closed when the ingester has pushed all events

	// Mutators: replace the owned preference through the BMS so the
	// full invalidation fan-out (engine recompile + memo invalidate +
	// stream epoch bump) runs each iteration. Each mutator runs at
	// least `versions` replacements and then keeps churning until the
	// stream ingester finishes, so live events are always delivered
	// against an engine that is actively recompiling.
	var mutDone sync.WaitGroup
	for i := 0; i < mutators; i++ {
		wg.Add(1)
		mutDone.Add(1)
		go func(i int) {
			defer wg.Done()
			defer mutDone.Done()
			for v := 2; ; v++ {
				setVersion(i, v)
				committed[i].Store(int64(v))
				if v >= versions {
					select {
					case <-ingestDone:
						return
					default:
					}
				}
			}
		}(i)
	}
	go func() {
		mutDone.Wait()
		close(churning)
	}()

	engine := f.bms.Engine()

	// Deciders: single Decide through the full request path plus raw
	// engine calls, checking the staleness invariant on every answer.
	for d := 0; d < deciders; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			i := d % mutators
			for n := 0; ; n++ {
				select {
				case <-churning:
					return
				default:
				}
				floor := committed[i].Load()
				if n%3 == 0 {
					resp, err := f.bms.RequestUser(churnReq(i))
					if err != nil {
						t.Errorf("RequestUser: %v", err)
						return
					}
					checkDecision("request-user", i, floor, resp.Decision)
				} else {
					checkDecision("decide", i, floor, engine.Decide(churnReq(i), []profile.Group{profile.GroupGradStudent}))
				}
			}
		}(d)
	}

	// Batch decider: DecideBatch across every churn subject at once.
	wg.Add(1)
	go func() {
		defer wg.Done()
		items := make([]enforce.BatchItem, mutators)
		for {
			select {
			case <-churning:
				return
			default:
			}
			floors := make([]int64, mutators)
			for i := range items {
				floors[i] = committed[i].Load()
				items[i] = enforce.BatchItem{Req: churnReq(i), Groups: []profile.Group{profile.GroupGradStudent}}
			}
			for i, d := range enforce.DecideBatch(engine, items, enforce.BatchOptions{}) {
				checkDecision("batch", i, floors[i], d)
			}
		}
	}()

	// Stream subscriber + ingester: live events are decided against
	// the engine while it recompiles; the subscriber just has to keep
	// draining without deadlock or race.
	sub := subscribe(t, f, enforce.Request{
		ServiceID: "concierge",
		Purpose:   policy.PurposeProvidingService,
		Kind:      sensor.ObsWiFiConnect,
	}, 64)
	var drained atomic.Int64
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			ev, err := sub.Next(context.Background())
			if err != nil {
				return
			}
			if ev.Type == stream.EventObservation {
				drained.Add(1)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(ingestDone)
		for n := 0; n < observations; n++ {
			mac := fmt.Sprintf("cc:00:00:00:00:%02x", n%mutators+1)
			if err := f.bms.Ingest(f.wifiObs(mac, "ap-1", n%60)); err != nil {
				t.Errorf("Ingest: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	// Ingest only wakes the hub, whose scan may lag the last Ingest
	// return. Give it time to surface at least one event before tearing
	// the stream down.
	deadline := time.Now().Add(10 * time.Second)
	for drained.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	sub.Cancel()
	<-drainDone
	if drained.Load() == 0 {
		t.Error("stream subscriber saw no events during churn")
	}

	// After the dust settles every subject must decide at the final
	// version, and the memo must serve it consistently.
	for i := 0; i < mutators; i++ {
		final := committed[i].Load()
		for rep := 0; rep < 2; rep++ {
			checkDecision("final", i, final, engine.Decide(churnReq(i), []profile.Group{profile.GroupGradStudent}))
		}
	}
}
