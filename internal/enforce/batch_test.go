package enforce

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
)

// batchItems builds a batch of per-subject requests with a mix of
// outcomes: subjects with deny preferences, with limit preferences,
// and with no preferences at all.
func batchItems(t *testing.T, eng Engine, n int) []BatchItem {
	t.Helper()
	subjects := []struct {
		id     string
		groups []profile.Group
	}{
		{"mary", []profile.Group{"faculty"}},
		{"bob", nil},
		{"carol", []profile.Group{"student"}},
		{"dave", nil},
	}
	for _, p := range policy.Preference2NoLocation("mary") {
		if err := eng.AddPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.AddPreference(policy.CoarseLocationPreference("carol", "concierge")); err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, n)
	for i := range items {
		sub := subjects[i%len(subjects)]
		req := baseRequest()
		req.SubjectID = sub.id
		req.Time = req.Time.Add(time.Duration(i/len(subjects)) * time.Hour)
		items[i] = BatchItem{Req: req, Groups: sub.groups}
	}
	return items
}

// TestDecideBatchMatchesSerial: the pool must produce exactly the
// decisions a serial Decide loop would, in item order, at every
// parallelism level — into a fresh slice and into a caller's buffer,
// whether that buffer is too small or holds another batch's decisions.
func TestDecideBatchMatchesSerial(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	eng := NewCompiledMemo(cfg, -1)
	items := batchItems(t, eng, 40)

	want := make([]Decision, len(items))
	for i, it := range items {
		want[i] = eng.Decide(it.Req, it.Groups)
	}
	for _, par := range []int{0, 1, 2, 8, 100} {
		got := DecideBatch(eng, items, BatchOptions{Parallelism: par})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism=%d: batch decisions diverge from serial loop", par)
		}

		stale := make([]Decision, len(items)+3)
		for i := range stale {
			stale[i] = Decision{Allowed: true, MatchedPreferences: []string{"left-over"}, DenyReason: "left-over"}
		}
		reused := AppendDecideBatch(stale[:0], eng, items, BatchOptions{Parallelism: par})
		if !reflect.DeepEqual(reused, want) {
			t.Errorf("parallelism=%d: decisions written over a stale buffer diverge from serial loop", par)
		}
		if &reused[0] != &stale[0] {
			t.Errorf("parallelism=%d: a buffer with room for the batch was not reused", par)
		}
		if grown := AppendDecideBatch(make([]Decision, 0, 2), eng, items, BatchOptions{Parallelism: par}); !reflect.DeepEqual(grown, want) {
			t.Errorf("parallelism=%d: decisions appended to a too-small buffer diverge from serial loop", par)
		}
		// It appends: what the buffer holds below its length stays.
		kept := AppendDecideBatch(reused[:2], eng, items[:1], BatchOptions{Parallelism: par})
		if len(kept) != 3 || !reflect.DeepEqual(kept[:2], want[:2]) || !reflect.DeepEqual(kept[2], want[0]) {
			t.Errorf("parallelism=%d: appending one decision to two gave %d, or disturbed the two", par, len(kept))
		}
	}
	// Sanity: the fixture actually exercises all three outcomes.
	var denied, limited, allowed int
	for _, d := range want {
		switch {
		case !d.Allowed:
			denied++
		case d.Effective.Action == policy.ActionLimit:
			limited++
		default:
			allowed++
		}
	}
	if denied == 0 || limited == 0 || allowed == 0 {
		t.Fatalf("fixture too uniform: denied=%d limited=%d allowed=%d", denied, limited, allowed)
	}
}

// TestDecideBatchObserve: the Observe hook fires once per item and
// tolerates concurrent invocation.
func TestDecideBatchObserve(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	eng := NewCompiledMemo(cfg, -1)
	items := batchItems(t, eng, 25)

	var calls atomic.Int64
	var mu sync.Mutex
	var seenDenied int
	DecideBatch(eng, items, BatchOptions{
		Parallelism: 8,
		Observe: func(d Decision, elapsed time.Duration) {
			calls.Add(1)
			if elapsed < 0 {
				t.Error("negative latency observed")
			}
			mu.Lock()
			if !d.Allowed {
				seenDenied++
			}
			mu.Unlock()
		},
	})
	if got := calls.Load(); got != int64(len(items)) {
		t.Fatalf("Observe fired %d times, want %d", got, len(items))
	}
	if seenDenied == 0 {
		t.Fatal("Observe never saw a denial")
	}
}

// TestDecideBatchEmpty: a zero-length batch returns a zero-length
// (non-nil-safe) slice without touching the engine.
func TestDecideBatchEmpty(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	eng := NewCompiledMemo(cfg, -1)
	if got := DecideBatch(eng, nil, BatchOptions{}); len(got) != 0 {
		t.Fatalf("empty batch returned %d decisions", len(got))
	}
	buf := make([]Decision, 4)
	if got := AppendDecideBatch(buf[:0], eng, nil, BatchOptions{}); len(got) != 0 || cap(got) != cap(buf) {
		t.Fatalf("empty batch over a buffer returned len %d cap %d", len(got), cap(got))
	}
}

// TestDecideBatchSharesCache: batching over the memoized compiled
// engine must reuse its decision memo — repeated identical items hit
// the memo instead of re-running candidate selection. This is the
// property that makes the aggregate path's fan-out cheaper, not just
// wider.
func TestDecideBatchSharesCache(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	reference := NewCompiledMemo(cfg, -1)
	memoized := NewCompiled(cfg)
	batchItems(t, reference, 1) // install the same rule fixture
	items := batchItems(t, memoized, 60)
	for i := range items {
		// Same minute for every repetition: 4 distinct subjects → 4
		// cache keys → 56 of the 60 decisions should be memo hits.
		items[i].Req.Time = items[0].Req.Time
	}

	serial := make([]Decision, len(items))
	for i, it := range items {
		serial[i] = reference.Decide(it.Req, it.Groups)
	}
	got := DecideBatch(memoized, items, BatchOptions{Parallelism: 8})
	hitCount := 0
	for i := range got {
		if got[i].FromCache {
			hitCount++
			got[i].FromCache = false // only provenance may differ
		}
	}
	if !reflect.DeepEqual(got, serial) {
		t.Fatal("memoized batch decisions diverge from memo-free serial loop")
	}
	if hitCount == 0 {
		t.Fatal("no decision in the batch was marked FromCache")
	}
	hits, misses := memoized.Stats()
	if hits == 0 {
		t.Fatalf("no memo hits across a repetitive batch (hits=%d misses=%d)", hits, misses)
	}
}
