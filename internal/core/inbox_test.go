package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/stream"
)

// TestOverrideReadsFoldIntoOneEntry: reads that override one preference
// leave one inbox entry that counts them, not one entry per read, so
// the inbox and the heap stay flat however often a service reads. The
// key is published on the notifications topic once when it enters the
// inbox, whether a conflict or a read put it there, and again only
// after the subject drains it.
func TestOverrideReadsFoldIntoOneEntry(t *testing.T) {
	const reads = 100_000
	f := newFixture(t)
	sub, err := f.bms.Streams().Subscribe(stream.Options{Topic: stream.TopicNotifications, UserID: "mary", Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	// Notifications are pushed before the call that folds them returns,
	// so the events published since the last look are those ahead of a
	// marker pushed now.
	const marker = "end-of-step"
	published := func() int {
		t.Helper()
		f.bms.Streams().PublishNotification(enforce.Notification{UserID: "mary", PolicyID: marker})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n := 0
		for {
			ev, err := sub.Next(ctx)
			if err != nil {
				t.Fatalf("notification stream: %v", err)
			}
			switch {
			case ev.Type == stream.EventGap: // events the buffer dropped
				n += int(ev.GapTo - ev.GapFrom)
			case ev.Notification.PolicyID == marker:
				return n
			default:
				n++
			}
		}
	}

	p2 := policy.Policy2EmergencyLocation("dbh")
	if err := f.bms.RegisterPolicy(p2); err != nil {
		t.Fatal(err)
	}
	prefs := policy.Preference2NoLocation("mary")
	for _, p := range prefs {
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	if n, drained := published(), f.bms.FetchNotifications("mary"); n == 0 || n != len(drained) {
		t.Fatalf("the conflicts published %d notifications for %d inbox entries", n, len(drained))
	}

	req := enforce.Request{ServiceID: "bms-emergency", Purpose: policy.PurposeEmergencyResponse,
		Kind: sensor.ObsWiFiConnect, SubjectID: "mary", Time: f.now}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// Four readers at once: the fold is shared state under b.mu.
	const readers = 4
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads/readers; i++ {
				if _, err := f.bms.RequestUser(req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := published(); n != 1 {
		t.Errorf("%d override reads published %d notifications, want 1", reads, n)
	}
	inbox := f.bms.FetchNotifications("mary")
	if len(inbox) != 1 {
		t.Fatalf("%d override reads left %d inbox entries, want 1", reads, len(inbox))
	}
	want := enforce.Notification{UserID: "mary", PolicyID: p2.ID, PreferenceID: prefs[0].ID,
		Message: fmt.Sprintf("Building policy %q (%s) overrode your preference %q for this request.", p2.Name, p2.ID, prefs[0].Name),
		Count:   reads, First: testNow, Last: testNow}
	if inbox[0] != want {
		t.Errorf("inbox entry\n got  %+v\n want %+v", inbox[0], want)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grew >= 1<<20 {
		t.Errorf("%d override reads grew the live heap by %.2f MB, want under 1 MB", reads, float64(grew)/(1<<20))
	}
	t.Logf("%d override reads: live heap %+.2f MB, %.1f allocations a read",
		reads, float64(grew)/(1<<20), float64(after.Mallocs-before.Mallocs)/reads)

	// Drained, the key enters again and is published again.
	if _, err := f.bms.RequestUser(req); err != nil {
		t.Fatal(err)
	}
	if n := published(); n != 1 {
		t.Errorf("a read after the drain published %d notifications, want 1", n)
	}
}
