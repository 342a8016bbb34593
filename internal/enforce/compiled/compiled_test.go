package compiled

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

func TestSetBasics(t *testing.T) {
	var s Set
	ids := []uint32{0, 1, 63, 64, 65, 640, 1<<20 + 3}
	for _, id := range ids {
		s.Add(id)
	}
	s.Add(64) // idempotent
	if got := s.Len(); got != len(ids) {
		t.Fatalf("Len = %d, want %d", got, len(ids))
	}
	for _, id := range ids {
		if !s.Contains(id) {
			t.Errorf("missing %d", id)
		}
	}
	for _, id := range []uint32{2, 62, 66, 1 << 21} {
		if s.Contains(id) {
			t.Errorf("phantom %d", id)
		}
	}
	s.Remove(63)
	s.Remove(63) // idempotent
	s.Remove(640)
	if s.Contains(63) || s.Contains(640) {
		t.Error("removed IDs still present")
	}
	if got := s.Len(); got != len(ids)-2 {
		t.Errorf("Len after removes = %d, want %d", got, len(ids)-2)
	}

	var nilSet *Set
	if nilSet.Contains(1) || nilSet.Len() != 0 || !nilSet.Empty() || nilSet.Word(0) != 0 {
		t.Error("nil set is not empty")
	}
}

// TestSetAgainstMap drives the sparse bitset against a plain map with
// a randomized add/remove workload.
func TestSetAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var s Set
	ref := map[uint32]bool{}
	for i := 0; i < 20000; i++ {
		id := uint32(r.Intn(4096))
		if r.Intn(3) == 0 {
			s.Remove(id)
			delete(ref, id)
		} else {
			s.Add(id)
			ref[id] = true
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	var got []uint32
	for _, b := range s.blocks {
		if b.bits == 0 {
			t.Fatal("empty block retained")
		}
		got = appendIDs(got, b.key, b.bits)
	}
	want := make([]uint32, 0, len(ref))
	for id := range ref {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ID enumeration diverges from reference map")
	}
}

func TestMergedKeys(t *testing.T) {
	var a, b Set
	a.Add(1)   // block 0
	a.Add(100) // block 1
	b.Add(70)  // block 1
	b.Add(200) // block 3
	type row struct {
		key    uint32
		aw, bw uint64
	}
	var got []row
	mergedKeys(&a, &b, func(key uint32, aw, bw uint64) { got = append(got, row{key, aw, bw}) })
	want := []row{
		{0, 1 << 1, 0},
		{1, 1 << (100 - 64), 1 << (70 - 64)},
		{3, 0, 1 << (200 - 192)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mergedKeys = %+v, want %+v", got, want)
	}
	mergedKeys(nil, nil, func(uint32, uint64, uint64) { t.Fatal("fn called for nil sets") })
}

func testSpaces(t *testing.T) *spatial.Model {
	t.Helper()
	m := spatial.NewModel()
	m.MustAdd("", spatial.Space{ID: "b", Kind: spatial.KindBuilding})
	m.MustAdd("b", spatial.Space{ID: "b/1", Kind: spatial.KindFloor, Floor: 1})
	m.MustAdd("b/1", spatial.Space{ID: "b/1/r0", Kind: spatial.KindRoom, Floor: 1})
	m.MustAdd("b", spatial.Space{ID: "b/2", Kind: spatial.KindFloor, Floor: 2})
	return m
}

// TestProgramMatchesScope: for randomized scopes and contexts, the
// compiled program must return exactly what Scope.MatchesRequest
// returns — clause for clause, including the bidirectional spatial
// containment and the zero-time window rule.
func TestProgramMatchesScope(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	spaces := testSpaces(t)
	overlaps := newOverlapSets(spaces)
	spaceIDs := []string{"", "b", "b/1", "b/1/r0", "b/2", "ghost"}
	kinds := []sensor.ObservationKind{"", sensor.ObsWiFiConnect, sensor.ObsOccupancy}
	purposes := []policy.Purpose{policy.PurposeProvidingService, policy.PurposeAnalytics}

	randScope := func() policy.Scope {
		var s policy.Scope
		s.SpaceID = spaceIDs[r.Intn(len(spaceIDs))]
		s.ObsKind = kinds[r.Intn(len(kinds))]
		if r.Intn(3) == 0 {
			s.SensorType = sensor.Type(1 + r.Intn(3))
		}
		if r.Intn(3) == 0 {
			s.ServiceID = fmt.Sprintf("svc-%d", r.Intn(2))
		}
		if r.Intn(3) == 0 {
			s.Purposes = []policy.Purpose{purposes[r.Intn(len(purposes))]}
		}
		if r.Intn(4) == 0 {
			s.SubjectIDs = []string{fmt.Sprintf("u%d", r.Intn(3))}
		}
		if r.Intn(4) == 0 {
			s.SubjectGroups = []profile.Group{profile.GroupStudent}
		}
		if r.Intn(3) == 0 {
			s.Window = policy.AfterHours
		}
		return s
	}
	randCtx := func() policy.Context {
		ctx := policy.Context{
			SpaceID:   spaceIDs[r.Intn(len(spaceIDs))],
			ObsKind:   kinds[r.Intn(len(kinds))],
			Purpose:   purposes[r.Intn(len(purposes))],
			SubjectID: fmt.Sprintf("u%d", r.Intn(3)),
			ServiceID: fmt.Sprintf("svc-%d", r.Intn(2)),
		}
		if r.Intn(3) == 0 {
			ctx.SensorType = sensor.Type(1 + r.Intn(3))
		}
		if r.Intn(2) == 0 {
			ctx.SubjectGroups = []profile.Group{profile.GroupStudent}
		}
		if r.Intn(8) != 0 {
			ctx.Time = time.Date(2017, time.June, 1+r.Intn(28), r.Intn(24), r.Intn(60), 0, 0, time.UTC)
		}
		return ctx
	}

	for i := 0; i < 5000; i++ {
		scope := randScope()
		prog := compileScope(scope, overlaps)
		ctx := randCtx()
		want := scope.MatchesRequest(ctx, spaces)
		if got := prog.matches(&ctx); got != want {
			t.Fatalf("iteration %d: program = %v, MatchesRequest = %v\nscope: %+v\nctx: %+v", i, got, want, scope, ctx)
		}
	}
}

func TestOverlapSets(t *testing.T) {
	o := newOverlapSets(testSpaces(t))
	got := o.get("b/1")
	for _, id := range []string{"b/1", "b", "b/1/r0"} {
		if _, ok := got[id]; !ok {
			t.Errorf("b/1 overlap set missing %s", id)
		}
	}
	if _, ok := got["b/2"]; ok {
		t.Error("sibling floor in overlap set")
	}
	if ghost := o.get("ghost"); len(ghost) != 1 {
		t.Errorf("unknown space overlap set = %v, want self only", ghost)
	}
	if o.get("b/1"); len(o.sets) != 2 {
		t.Errorf("memoization failed: %d sets", len(o.sets))
	}

	// nil model: exact-ID matching only.
	noModel := newOverlapSets(nil)
	if set := noModel.get("b/1"); len(set) != 1 {
		t.Errorf("nil-model overlap set = %v", set)
	}
}

func TestIndexFreeListReuse(t *testing.T) {
	ix := NewIndex(nil)
	for i := 0; i < 10; i++ {
		ix.AddPreference(policy.Preference{ID: fmt.Sprintf("p%d", i), UserID: "u"})
	}
	for i := 0; i < 10; i++ {
		if owner, ok := ix.RemovePreference(fmt.Sprintf("p%d", i)); !ok || owner != "u" {
			t.Fatalf("remove = (%q, %v), want the owner back", owner, ok)
		}
	}
	// Dense IDs must be recycled, not grown.
	for i := 0; i < 10; i++ {
		if replaced := ix.AddPreference(policy.Preference{ID: fmt.Sprintf("q%d", i), UserID: "u"}); replaced != "" {
			t.Fatalf("a new ID replaced %q's rule", replaced)
		}
	}
	if len(ix.prefs) != 10 {
		t.Errorf("dense space grew to %d entries for 10 live rules", len(ix.prefs))
	}
	if _, prefs := ix.Counts(); prefs != 10 {
		t.Errorf("Counts = %d", prefs)
	}
	// Replacing under the same ID must not leak a dense slot either.
	if replaced := ix.AddPreference(policy.Preference{ID: "q0", UserID: "v"}); replaced != "u" {
		t.Errorf("replacing u's rule under v reported the previous owner as %q", replaced)
	}
	if len(ix.prefs) != 10 {
		t.Errorf("replace leaked a dense slot: %d entries", len(ix.prefs))
	}
	cands := ix.PrefCandidates("v", "", "", nil)
	if len(cands) != 1 {
		t.Fatalf("replaced rule not found under new subject: %v", cands)
	}
	if got := ix.PrefCandidates("u", "", "", nil); len(got) != 9 {
		t.Errorf("stale subject bucket: %d candidates, want 9", len(got))
	}
}
