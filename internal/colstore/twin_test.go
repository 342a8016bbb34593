package colstore

import (
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// mirrored feeds every mutation to two row stores: src, attached to a
// columnar tier and therefore evicting what the tier seals, and twin, a
// plain obstore.New() that no tier ever touches. The twin is the
// whole-history oracle the equivalence tests compare against: whatever
// src answers for the union of its hot log and the segments, the twin
// answers from rows it simply kept.
type mirrored struct {
	t         *testing.T
	src, twin *obstore.Store
}

func (m mirrored) append(o sensor.Observation) sensor.Observation {
	m.t.Helper()
	got, err := m.src.Append(o)
	if err != nil {
		m.t.Fatal(err)
	}
	want, err := m.twin.Append(o)
	if err != nil {
		m.t.Fatal(err)
	}
	if got.Seq != want.Seq {
		m.t.Fatalf("stores disagree on the next seq: %d vs twin's %d", got.Seq, want.Seq)
	}
	return got
}

// deleteUser erases user from both stores and returns the twin's
// count. Each counts the stored rows it removed, and src may no longer
// store an expired row the twin still does, so the stores must agree on
// what a read sees, not on the count.
func (m mirrored) deleteUser(user string) int {
	m.t.Helper()
	m.src.DeleteUser(user, nil)
	n := m.twin.DeleteUser(user, nil)
	m.agree("DeleteUser(" + user + ")")
	return n
}

// sweep runs Sweep on both stores and returns the twin's count: src
// drops only its hot rows — the tier's expired rows leave at its
// compaction.
func (m mirrored) sweep(now time.Time) int {
	m.t.Helper()
	m.src.Sweep(now)
	n := m.twin.Sweep(now)
	m.agree("Sweep")
	return n
}

// agree fails unless src and the twin read the same rows.
func (m mirrored) agree(after string) {
	m.t.Helper()
	if got, want := m.src.Query(obstore.Filter{}), m.twin.Query(obstore.Filter{}); len(got)+len(want) > 0 && !reflect.DeepEqual(normTimes(got), normTimes(want)) {
		m.t.Fatalf("after %s src reads %d rows, the twin %d", after, len(got), len(want))
	}
}

// retain installs the same retention on both stores.
func (m mirrored) retain(rules ...obstore.RetentionRule) {
	retainOn(m.src, rules...)
	retainOn(m.twin, rules...)
}

func retainOn(st *obstore.Store, rules ...obstore.RetentionRule) {
	for _, r := range rules {
		st.AddRetentionRule(r)
	}
}

// newMirroredPair is newPair plus the twin, on the same clock.
func newMirroredPair(t *testing.T, dir string) (mirrored, *Store) {
	t.Helper()
	src, cs := newPair(t, dir)
	twin := obstore.New()
	twin.SetClock(func() time.Time { return csNow })
	return mirrored{t: t, src: src, twin: twin}, cs
}
