package enforce

import (
	"slices"
	"time"

	"github.com/tippers/tippers/internal/policy"
)

// Domain is one subject's class domain under the rules it was read
// under: every daily window a decision about the subject can read.
// Those are the windows of the subject's own preferences, of the
// override policies and of the group defaults; Decide selects no other
// rule. A Domain holds no lock and may be kept: the slices it shares
// with its engine are never written after it is handed out. A read
// takes each subject's domain once and classes all of the subject's
// rows in it.
type Domain struct {
	own, shared []policy.DailyWindow
}

// Class is the window class of an instant in a subject's domain. Two
// instants of one class lie in the same windows of the domain, so
// under the rules the domain was read under every request about the
// subject gets the same decision at either. A read that judges rows at
// their capture times therefore decides once per class, not per row.
//
// Bit i is set when the domain's window i contains the instant. A
// domain of more than 32 windows, which the mask cannot name, uses the
// instant's UTC minute of the week instead: no window tells two
// instants of one such minute apart. Four bytes keep a read's memo key
// small.
type Class uint32

// Empty reports whether the subject has no windowed rule: every instant
// has one class, so one decision holds whenever a row was captured.
func (d Domain) Empty() bool { return len(d.own)+len(d.shared) == 0 }

// Class returns the window class of t (zero t: now). It is the one
// function every engine and every read path computes classes with.
func (d Domain) Class(t time.Time) Class {
	n := len(d.own) + len(d.shared)
	if n == 0 {
		return 0
	}
	t = instant(t).UTC()
	if n > 32 {
		return Class(int(t.Weekday())*24*60 + t.Hour()*60 + t.Minute())
	}
	var c Class
	for i, w := range d.own {
		if w.Contains(t) {
			c |= 1 << i
		}
	}
	for i, w := range d.shared {
		if w.Contains(t) {
			c |= 1 << (len(d.own) + i)
		}
	}
	return c
}

// instant resolves a request's evaluation time: unset means now.
func instant(t time.Time) time.Time {
	if t.IsZero() {
		return time.Now()
	}
	return t
}

// addWindow appends w to ws unless it is unset or already there. A
// slice clipped to its length grows into a new array, so a Domain
// sharing the old one never sees the append.
func addWindow(ws []policy.DailyWindow, w policy.DailyWindow) []policy.DailyWindow {
	if w.IsZero() || slices.Contains(ws, w) {
		return ws
	}
	return append(slices.Clip(ws), w)
}

// sharedWindows is the part of every subject's domain that preferences
// do not move: the windows of the override policies and of the group
// defaults.
func (e *evaluator) sharedWindows(policies []policy.BuildingPolicy) []policy.DailyWindow {
	var ws []policy.DailyWindow
	for _, g := range e.cfg.GroupDefaults {
		ws = addWindow(ws, g.Scope.Window)
	}
	for _, bp := range policies {
		if bp.Override && bp.GovernsDataFlows() {
			ws = addWindow(ws, bp.Scope.Window)
		}
	}
	return ws
}
