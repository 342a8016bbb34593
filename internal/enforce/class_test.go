package enforce

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
)

// TestClassesDecideLikeNaive: rows captured across a week, each judged
// at its capture time, get the same decision from the memoized Compiled
// engine as from Naive, while preference and policy writes interleave
// with the rows and the node's clock moves across minutes, so that the
// memo both drops and replays. Two rows of one class in the domain the
// Compiled engine reports get the same Naive decision. A subject whose
// domain holds no window has one class, and both engines agree on which
// domains are empty.
func TestClassesDecideLikeNaive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: seed != 2,
				GroupDefaults: []GroupDefault{{ID: "students-coarse", Groups: []profile.Group{profile.GroupStudent},
					Rule: policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.GranFloor}}}}
			if seed == 3 {
				cfg.GroupDefaults[0].Scope.Window = policy.BusinessHours
			}
			naive, memoized := NewNaive(cfg), NewCompiledMemo(cfg, 512)
			clock := time.Date(2017, time.June, 7, 9, 0, 0, 0, time.UTC)
			memoized.SetClock(func() time.Time { return clock })
			engines := []Engine{naive, memoized}

			// "plain" never holds a windowed preference.
			subjects := append([]string{"plain"}, diffUsers...)
			groupsOf := func(s string) []profile.Group {
				if s[len(s)-1]%2 == 0 {
					return []profile.Group{profile.GroupStudent}
				}
				return nil
			}
			windows := append(diffWindows, policy.DailyWindow{Start: 22 * 60, End: 2 * 60, Days: policy.Tuesday | policy.Saturday})
			week := time.Date(2017, time.June, 4, 0, 0, 0, 0, time.UTC) // a Sunday
			capture := func() time.Time {
				if r.Intn(2) == 0 {
					return week.Add(time.Duration(r.Intn(7*24*60)) * time.Minute)
				}
				// Either side of a window edge.
				edge := []int{60, 2 * 60, 8 * 60, 18 * 60, 22 * 60, 23 * 60}[r.Intn(6)]
				return week.Add(time.Duration(r.Intn(7))*24*time.Hour + time.Duration(edge+r.Intn(3)-1)*time.Minute +
					time.Duration(r.Intn(60))*time.Second)
			}
			overrides, classes, hits := 0, 0, uint64(0)
			for step := 0; step < 400; step++ {
				switch n := r.Intn(10); {
				case n < 4:
					p := randDiffPreference(r, r.Intn(30))
					if p.UserID = subjects[r.Intn(len(subjects))]; p.UserID == "plain" {
						p.Scope.Window = policy.DailyWindow{}
					} else {
						p.Scope.Window = windows[r.Intn(len(windows))]
					}
					for _, e := range engines {
						if err := e.AddPreference(p); err != nil {
							t.Fatal(err)
						}
					}
				case n < 5:
					id := fmt.Sprintf("pref-%d", r.Intn(30))
					for _, e := range engines {
						e.RemovePreference(id)
					}
				case n < 6 && overrides < 6:
					bp := randDiffOverride(r, overrides)
					if step > 200 {
						bp.Scope.Window = windows[r.Intn(len(windows))]
					}
					overrides++
					for _, e := range engines {
						if err := e.AddPolicy(bp); err != nil {
							t.Fatal(err)
						}
					}
				case n < 8:
					clock = clock.Add(time.Duration(r.Intn(90)) * time.Second)
				}

				// One read: rows about one subject, each at its capture time.
				req := randDiffRequest(r)
				req.SubjectID = subjects[r.Intn(len(subjects))]
				groups := groupsOf(req.SubjectID)
				domain := memoized.Domain(req.SubjectID)
				if empty := naive.Domain(req.SubjectID).Empty(); empty != domain.Empty() {
					t.Fatalf("step %d: %s's domain empty: naive %v, compiled %v", step, req.SubjectID, empty, domain.Empty())
				}
				byClass := make(map[Class]Decision)
				for row := 0; row < 8; row++ {
					req.Time = capture()
					want := normalizeDecision(naive.Decide(req, groups))
					got := memoized.Decide(req, groups)
					if got.FromCache {
						hits++
					}
					if got := normalizeDecision(got); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: %s at %v: compiled %+v, naive %+v", step, req.SubjectID, req.Time, got, want)
					}
					c := domain.Class(req.Time)
					if first, ok := byClass[c]; ok && !reflect.DeepEqual(first, want) {
						t.Fatalf("step %d: %s at %v decides %+v, another row of its class %+v", step, req.SubjectID, req.Time, want, first)
					}
					byClass[c] = want
				}
				if domain.Empty() && len(byClass) != 1 {
					t.Fatalf("step %d: %s has no windowed rule but %d classes", step, req.SubjectID, len(byClass))
				}
				classes += len(byClass)
			}
			if hits == 0 || memoized.agedMinute.Value() == 0 || classes <= 400 {
				t.Errorf("the run did not exercise the memo: %d hits, %d minute drops, %d classes over 400 reads",
					hits, memoized.agedMinute.Value(), classes)
			}
		})
	}
}

// TestClassOfWideDomain: a subject with 70 windows, more than a mask
// can name, still decides exactly. The first 64 windows differ only in
// the morning; the last six are narrow afternoon windows with rules of
// their own, which a mask truncated to its width could not tell apart,
// and the memo would serve one afternoon decision for another.
func TestClassOfWideDomain(t *testing.T) {
	cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: true}
	naive, memoized := NewNaive(cfg), stopped(NewCompiled(cfg))
	for i := 0; i < 70; i++ {
		p := policy.Preference{ID: fmt.Sprintf("w%02d", i), UserID: "mary",
			Scope: policy.Scope{ObsKind: sensor.ObsWiFiConnect, Window: policy.DailyWindow{Start: 0, End: 6*60 + i}},
			Rule:  policy.Rule{Action: policy.ActionAllow}}
		if i >= 64 {
			j := i - 64
			p.Scope.Window = policy.DailyWindow{Start: 12*60 + 10*j, End: 12*60 + 10*j + 5}
			p.Rule = policy.Rule{Action: policy.ActionLimit, MaxGranularity: policy.Granularity(1 + j%5)}
		}
		for _, e := range []Engine{naive, memoized} {
			if err := e.AddPreference(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	domain := memoized.Domain("mary")
	if n := len(domain.own) + len(domain.shared); n != 70 {
		t.Fatalf("domain holds %d windows, want 70", n)
	}
	req := baseRequest()
	day := time.Date(2017, time.June, 7, 0, 0, 0, 0, time.UTC)
	for pass := 0; pass < 2; pass++ {
		for m := 11 * 60; m < 14*60; m++ {
			req.Time = day.Add(time.Duration(m) * time.Minute)
			want := normalizeDecision(naive.Decide(req, nil))
			if got := normalizeDecision(memoized.Decide(req, nil)); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d, %v: compiled %+v, naive %+v", pass, req.Time, got, want)
			}
		}
	}
	if hits, _ := memoized.Stats(); hits == 0 {
		t.Error("the second pass was not served from the memo")
	}
	if domain.Class(day.Add(12*time.Hour)) == domain.Class(day.Add(12*time.Hour+time.Minute)) {
		t.Error("two minutes of one window's edge share a class")
	}
}
