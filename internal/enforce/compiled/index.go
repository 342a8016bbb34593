// Package compiled turns policy and preference documents into an
// indexed decision structure at registration time, so enforcement
// decisions cost the same at 1,000,000 registered preferences as at
// 10 (the paper's §V.C open problem).
//
// Three ideas compose:
//
//   - Dense rule IDs: every live preference (and override policy)
//     owns a small integer, reused after removal, so rule sets are
//     bitsets, not maps of documents.
//   - Posting buckets as bitsets: rules are pre-bucketed by subject,
//     observation kind, requesting service, and (for overrides)
//     purpose. Candidate selection is a block-wise bitset
//     intersection over the subject's own — tiny — set, independent
//     of the building's total rule count.
//   - Instruction programs: each rule's scope conditions are
//     flattened into a short conjunctive program (program.go) with
//     spatial containment resolved into a precomputed overlap set, so
//     matching a candidate never consults the spatial model or walks
//     a document.
//
// The Index itself is not safe for concurrent use; enforce.Compiled
// wraps it with the engine lock and the decision memo, and recompiles
// incrementally on every mutation.
package compiled

import (
	"sort"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/spatial"
)

// Index is the compiled rule store.
type Index struct {
	overlaps *overlapSets

	// Preferences, addressed by dense ID.
	prefs   []prefEntry
	free    []uint32
	denseID map[string]uint32 // preference ID -> dense ID

	bySubject map[string]subjectBucket
	byKind    map[sensor.ObservationKind]*Set // "" = kind-wildcard bucket
	byService map[string]*Set                 // "" = service-wildcard bucket

	// Override policies, a separate (small) dense ID space. Non-
	// override policies never influence Decide — they are enforced at
	// capture/storage time by the BMS core — so only their count is
	// kept.
	pols        []polEntry
	polFree     []uint32
	polByKind   map[sensor.ObservationKind]*Set
	polByPurp   map[policy.Purpose]*Set
	policyCount int
}

// Matched is the slice of a preference the decision pipeline actually
// reads: its ID for MatchedPreferences and Overridden, its owner, and
// the rule to combine. The full ~300-byte Preference document stays
// with the registration layer; keeping entries to two cache lines is
// what makes the 1M-preference decide read as few cold lines as the
// 10-preference one.
type Matched struct {
	ID     string
	UserID string
	Rule   policy.Rule
}

type prefEntry struct {
	m    Matched
	prog program
}

// subjectBucket holds one subject's preference IDs. The dominant
// shape is a single preference per subject, stored inline (solo =
// id+1, multi = nil) so candidate selection costs one map probe and
// no pointer chase into a Set — at a million registered subjects
// those two extra cold reads are most of the decision latency. A
// second preference migrates the bucket to a Set; removal back down
// to one collapses it again.
type subjectBucket struct {
	solo  uint32 // id+1 when exactly one preference and multi == nil
	multi *Set
}

func (ix *Index) subjectAdd(key string, id uint32) {
	b := ix.bySubject[key]
	switch {
	case b.multi != nil:
		b.multi.Add(id)
	case b.solo == 0:
		ix.bySubject[key] = subjectBucket{solo: id + 1}
	default:
		s := &Set{}
		s.Add(b.solo - 1)
		s.Add(id)
		ix.bySubject[key] = subjectBucket{multi: s}
	}
}

func (ix *Index) subjectRemove(key string, id uint32) {
	b, ok := ix.bySubject[key]
	if !ok {
		return
	}
	if b.multi == nil {
		if b.solo == id+1 {
			delete(ix.bySubject, key)
		}
		return
	}
	b.multi.Remove(id)
	switch b.multi.Len() {
	case 0:
		delete(ix.bySubject, key)
	case 1:
		var only []uint32
		for _, blk := range b.multi.blocks {
			only = appendIDs(only, blk.key, blk.bits)
		}
		ix.bySubject[key] = subjectBucket{solo: only[0] + 1}
	}
}

type polEntry struct {
	pol  policy.BuildingPolicy
	prog program
}

// NewIndex returns an empty index compiling against the given spatial
// model (nil restricts spatial matching to exact IDs).
func NewIndex(spaces *spatial.Model) *Index {
	return &Index{
		overlaps:  newOverlapSets(spaces),
		denseID:   make(map[string]uint32),
		bySubject: make(map[string]subjectBucket),
		byKind:    make(map[sensor.ObservationKind]*Set),
		byService: make(map[string]*Set),
		polByKind: make(map[sensor.ObservationKind]*Set),
		polByPurp: make(map[policy.Purpose]*Set),
	}
}

func bucketAdd[K comparable](m map[K]*Set, key K, id uint32) {
	s := m[key]
	if s == nil {
		s = &Set{}
		m[key] = s
	}
	s.Add(id)
}

func bucketRemove[K comparable](m map[K]*Set, key K, id uint32) {
	if s := m[key]; s != nil {
		s.Remove(id)
		if s.Empty() {
			delete(m, key)
		}
	}
}

// AddPreference compiles and installs p (already validated by
// Preference.Check), replacing any previous rule with the same ID. It
// returns the owner of the rule it replaced — who may differ from
// p.UserID, and whose decisions the replacement changes too — or ""
// when the ID was new.
func (ix *Index) AddPreference(p policy.Preference) (replacedOwner string) {
	if old, ok := ix.denseID[p.ID]; ok {
		replacedOwner = ix.removeDense(old)
	}
	e := prefEntry{
		m:    Matched{ID: p.ID, UserID: p.UserID, Rule: p.Rule},
		prog: compileScope(p.Scope, ix.overlaps),
	}
	var id uint32
	if n := len(ix.free); n > 0 {
		id = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.prefs[id] = e
	} else {
		id = uint32(len(ix.prefs))
		ix.prefs = append(ix.prefs, e)
	}
	ix.denseID[p.ID] = id
	ix.subjectAdd(p.UserID, id)
	bucketAdd(ix.byKind, p.Scope.ObsKind, id)
	bucketAdd(ix.byService, p.Scope.ServiceID, id)
	return replacedOwner
}

// RemovePreference uninstalls by preference ID, returning the rule's
// owner and whether it existed.
func (ix *Index) RemovePreference(id string) (owner string, ok bool) {
	dense, ok := ix.denseID[id]
	if !ok {
		return "", false
	}
	return ix.removeDense(dense), true
}

// removeDense frees a dense slot and returns the owner of the rule
// that held it.
func (ix *Index) removeDense(dense uint32) (owner string) {
	e := &ix.prefs[dense]
	owner = e.m.UserID
	delete(ix.denseID, e.m.ID)
	ix.subjectRemove(e.m.UserID, dense)
	// The program's inline fields are the bucket keys: an unset scope
	// dimension compiles to the zero value, which is exactly the
	// wildcard bucket key.
	bucketRemove(ix.byKind, e.prog.obsKind, dense)
	bucketRemove(ix.byService, e.prog.serviceID, dense)
	ix.prefs[dense] = prefEntry{}
	ix.free = append(ix.free, dense)
	return owner
}

// AddPolicy installs a building policy (already validated by Check).
// Only override policies that govern data flows are compiled; others
// are counted and dropped, since Decide never consults them.
func (ix *Index) AddPolicy(p policy.BuildingPolicy) {
	ix.policyCount++
	if !p.Override || !p.GovernsDataFlows() {
		return
	}
	var id uint32
	if n := len(ix.polFree); n > 0 {
		id = ix.polFree[n-1]
		ix.polFree = ix.polFree[:n-1]
		ix.pols[id] = polEntry{pol: p, prog: compileScope(p.Scope, ix.overlaps)}
	} else {
		id = uint32(len(ix.pols))
		ix.pols = append(ix.pols, polEntry{pol: p, prog: compileScope(p.Scope, ix.overlaps)})
	}
	bucketAdd(ix.polByKind, p.Scope.ObsKind, id)
	purposes := p.Scope.Purposes
	if len(purposes) == 0 {
		bucketAdd(ix.polByPurp, policy.PurposeAny, id)
	} else {
		for _, purp := range purposes {
			bucketAdd(ix.polByPurp, purp, id)
		}
	}
}

// Counts returns installed (policies, preferences).
func (ix *Index) Counts() (int, int) { return ix.policyCount, len(ix.denseID) }

// PrefCandidates appends to dst the dense IDs of preferences that
// could match a request from serviceID for (subjectID, kind):
// subject ∩ (kind ∪ kind-wildcard) ∩ (service ∪ service-wildcard),
// block-wise. A kind- (or service-) scoped rule can never match a
// request with that dimension empty, so empty dimensions intersect
// the wildcard bucket alone.
func (ix *Index) PrefCandidates(subjectID string, kind sensor.ObservationKind, serviceID string, dst []uint32) []uint32 {
	b := ix.bySubject[subjectID]
	if b.multi == nil {
		// Inline single-preference bucket (or no bucket at all): the
		// one candidate's program re-checks every scope condition, so
		// no pruning is needed.
		if b.solo != 0 {
			dst = append(dst, b.solo-1)
		}
		return dst
	}
	sub := b.multi
	// Small subject buckets skip the kind/service intersection: each
	// Word lookup binary-searches buckets that grow with the total
	// preference count, while programs re-check every scope condition
	// anyway, so for a handful of candidates the pruning costs more
	// than the evaluations it saves — and the skip keeps per-decision
	// work independent of how many preferences OTHER subjects hold.
	if len(sub.blocks) <= 2 {
		for _, b := range sub.blocks {
			dst = appendIDs(dst, b.key, b.bits)
		}
		return dst
	}
	kindW := ix.byKind[""]
	var kindE *Set
	if kind != "" {
		kindE = ix.byKind[kind]
	}
	svcW := ix.byService[""]
	var svcE *Set
	if serviceID != "" {
		svcE = ix.byService[serviceID]
	}
	for _, b := range sub.blocks {
		w := b.bits & (kindE.Word(b.key) | kindW.Word(b.key)) & (svcE.Word(b.key) | svcW.Word(b.key))
		dst = appendIDs(dst, b.key, w)
	}
	return dst
}

// MatchPrefs program-evaluates the candidate dense IDs against ctx,
// appending the matching rules to dst sorted by preference ID (the
// order the decision pipeline requires). Callers may pass a reused
// buffer: the hot decide path recycles one through a pool so a match
// allocates nothing.
func (ix *Index) MatchPrefs(cands []uint32, ctx *policy.Context, dst []Matched) []Matched {
	matched := dst
	for _, id := range cands {
		if e := &ix.prefs[id]; e.prog.matches(ctx) {
			matched = append(matched, e.m)
		}
	}
	if len(matched) > 1 {
		sort.Slice(matched, func(i, j int) bool { return matched[i].ID < matched[j].ID })
	}
	return matched
}

// OverrideCandidates appends to dst the dense IDs of override
// policies that could match (kind, purpose):
// (kind ∪ kind-wildcard) ∩ (purpose ∪ purpose-wildcard).
func (ix *Index) OverrideCandidates(kind sensor.ObservationKind, purpose policy.Purpose, dst []uint32) []uint32 {
	kindW := ix.polByKind[""]
	var kindE *Set
	if kind != "" {
		kindE = ix.polByKind[kind]
	}
	purpW := ix.polByPurp[policy.PurposeAny]
	var purpE *Set
	if purpose != policy.PurposeAny {
		purpE = ix.polByPurp[purpose]
	}
	mergedKeys(kindE, kindW, func(key uint32, ew, ww uint64) {
		w := (ew | ww) & (purpE.Word(key) | purpW.Word(key))
		dst = appendIDs(dst, key, w)
	})
	return dst
}

// MatchOverride program-evaluates the candidate override policies
// against ctx and returns the lowest-ID match (ties must be engine-
// order independent), or nil.
func (ix *Index) MatchOverride(cands []uint32, ctx *policy.Context) *policy.BuildingPolicy {
	var winner *polEntry
	for _, id := range cands {
		e := &ix.pols[id]
		if !e.prog.matches(ctx) {
			continue
		}
		if winner == nil || e.pol.ID < winner.pol.ID {
			winner = e
		}
	}
	if winner == nil {
		return nil
	}
	return &winner.pol
}

// Stats describes the compiled state, for metrics.
type Stats struct {
	PreferencePrograms int
	OverridePrograms   int
	SubjectBuckets     int
	KindBuckets        int
	ServiceBuckets     int
}

// Stats returns current sizes.
func (ix *Index) Stats() Stats {
	return Stats{
		PreferencePrograms: len(ix.denseID),
		OverridePrograms:   len(ix.pols) - len(ix.polFree),
		SubjectBuckets:     len(ix.bySubject),
		KindBuckets:        len(ix.byKind),
		ServiceBuckets:     len(ix.byService),
	}
}
