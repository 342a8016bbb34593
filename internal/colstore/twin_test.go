package colstore

import (
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

func (m mirrored) deleteUser(user string) int {
	m.t.Helper()
	got, want := m.src.DeleteUser(user, nil), m.twin.DeleteUser(user, nil)
	if got != want {
		m.t.Fatalf("DeleteUser(%q) removed %d rows, the twin %d", user, got, want)
	}
	return got
}

func (m mirrored) sweep(now time.Time) int {
	m.t.Helper()
	got, want := m.src.Sweep(now), m.twin.Sweep(now)
	if got != want {
		m.t.Fatalf("Sweep removed %d rows, the twin %d", got, want)
	}
	return got
}

// retain installs the same retention on both stores.
func (m mirrored) retain(rules ...obstore.RetentionRule) {
	retainOn(m.src, rules...)
	retainOn(m.twin, rules...)
}

// retainOn installs rules on st; one with no scope is the default TTL.
func retainOn(st *obstore.Store, rules ...obstore.RetentionRule) {
	for _, r := range rules {
		if r.SensorID == "" && r.Kind == "" {
			st.SetDefaultRetention(r.TTL)
		} else {
			st.AddRetentionRule(r)
		}
	}
}

// newMirroredPair is newPair plus the twin.
func newMirroredPair(t *testing.T, dir string) (mirrored, *Store) {
	t.Helper()
	src, cs := newPair(t, dir)
	return mirrored{t: t, src: src, twin: obstore.New()}, cs
}
