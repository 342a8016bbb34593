package reasoner

import "github.com/tippers/tippers/internal/spatial"

// New is the constructor bench/replay.go calls for its shadow
// reasoner, with a second argument that no longer means anything: there
// is one resolution. The reasoner it returns knows no user's groups, so
// a group-scoped policy conflicts with nobody; none of the paper's four
// policies is group-scoped. It goes together with replay.go in ROADMAP
// item 6's benchmark PR; every other caller uses NewWithGroups.
func New(spaces *spatial.Model, _ int) *Reasoner { return NewWithGroups(spaces, nil) }
