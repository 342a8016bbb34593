package enforce

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
)

// byteFeed turns a fuzzer-controlled byte string into a stream of
// bounded choices; exhausted input yields zeros, so every prefix is a
// valid (shorter) document set.
type byteFeed struct {
	data []byte
	i    int
}

func (b *byteFeed) next() byte {
	if b.i >= len(b.data) {
		return 0
	}
	v := b.data[b.i]
	b.i++
	return v
}

func (b *byteFeed) pick(n int) int { return int(b.next()) % n }

// FuzzCompilePolicy feeds fuzzer-shaped policy and preference
// documents — valid, invalid, and degenerate — through the compiler
// and holds two invariants: compilation never panics, and on probe
// requests the compiled engine decides exactly like the naive
// reference, including which documents were accepted at registration.
func FuzzCompilePolicy(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte("\x05window-wrap\xff\x00\x81prefs"))
	f.Add([]byte{9, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6})
	f.Add([]byte{255, 254, 253, 0, 128, 64, 32, 16, 8, 4, 2, 1, 0, 0, 255, 255})

	users := []string{"mary", "bob", "u0", ""}
	kinds := []sensor.ObservationKind{"", sensor.ObsWiFiConnect, sensor.ObsOccupancy, sensor.ObsPowerReading, "bogus-kind"}
	spaces := []string{"", "dbh", "dbh/1", "dbh/2/r1", "ghost", "dbh/2/r9"}
	services := []string{"", "concierge", "smart-meeting", "food-delivery", "nope"}
	purposes := []policy.Purpose{
		policy.PurposeAny, policy.PurposeProvidingService, policy.PurposeEmergencyResponse,
		policy.PurposeSecurity, policy.PurposeMarketing, policy.Purpose("made-up"),
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b := &byteFeed{data: data}
		cfg := Config{Spaces: testModel(t), Services: testServices(t), DefaultAllow: b.pick(2) == 0}
		naive := NewNaive(cfg)
		engines := []Engine{NewCompiledMemo(cfg, -1), NewCompiled(cfg)}

		randScope := func() policy.Scope {
			var s policy.Scope
			s.SpaceID = spaces[b.pick(len(spaces))]
			s.ObsKind = kinds[b.pick(len(kinds))]
			s.ServiceID = services[b.pick(len(services))]
			if n := b.pick(3); n > 0 {
				for i := 0; i < n; i++ {
					s.Purposes = append(s.Purposes, purposes[b.pick(len(purposes))])
				}
			}
			if b.pick(3) == 0 {
				// Arbitrary windows, including inverted and out-of-range
				// minute values the fuzzer invents.
				s.Window = policy.DailyWindow{
					Start: b.pick(256) * 7,
					End:   b.pick(256) * 7,
					Days:  policy.Weekdays(b.next()),
				}
			}
			if b.pick(4) == 0 {
				s.SensorType = sensor.Type(b.pick(10))
			}
			return s
		}

		nPrefs := b.pick(12)
		for i := 0; i < nPrefs; i++ {
			p := policy.Preference{
				ID:     fmt.Sprintf("p%d", b.pick(8)), // collisions exercise replace
				UserID: users[b.pick(len(users))],
				Scope:  randScope(),
				Rule: policy.Rule{
					Action:          policy.Action(b.pick(5)), // includes invalid actions
					MaxGranularity:  policy.Granularity(b.pick(8)),
					NoiseEpsilon:    float64(b.pick(8)) / 2,
					MinAggregationK: b.pick(4),
				},
			}
			if b.pick(5) == 0 {
				// Preferences must not carry subject scopes; Check
				// rejects these and both engines must agree.
				p.Scope.SubjectIDs = []string{"mary"}
			}
			errN := naive.AddPreference(p)
			for _, e := range engines {
				if errC := e.AddPreference(p); (errN == nil) != (errC == nil) {
					t.Fatalf("AddPreference(%+v): naive err=%v, %s err=%v", p, errN, EngineName(e), errC)
				}
			}
		}
		nPols := b.pick(5)
		for i := 0; i < nPols; i++ {
			bp := policy.BuildingPolicy{
				ID:       fmt.Sprintf("bp%d", i),
				Name:     "fuzz",
				Owner:    "facilities",
				Kind:     policy.PolicyKind(b.pick(4)),
				Scope:    randScope(),
				Override: b.pick(2) == 0, // often invalid: no safety-critical purpose
			}
			errN := naive.AddPolicy(bp)
			for _, e := range engines {
				if errC := e.AddPolicy(bp); (errN == nil) != (errC == nil) {
					t.Fatalf("AddPolicy(%+v): naive err=%v, %s err=%v", bp, errN, EngineName(e), errC)
				}
			}
		}
		if b.pick(3) == 0 && nPrefs > 0 {
			id := fmt.Sprintf("p%d", b.pick(8))
			want := naive.RemovePreference(id)
			for _, e := range engines {
				if got := e.RemovePreference(id); got != want {
					t.Fatalf("RemovePreference(%s): naive %v, %s %v", id, want, EngineName(e), got)
				}
			}
		}

		for probe := 0; probe < 4; probe++ {
			req := Request{
				ServiceID:   services[b.pick(len(services))],
				Purpose:     purposes[b.pick(len(purposes))],
				Kind:        kinds[b.pick(len(kinds))],
				SubjectID:   users[b.pick(len(users))],
				SpaceID:     spaces[b.pick(len(spaces))],
				Granularity: policy.Granularity(b.pick(8)),
			}
			if b.pick(8) != 0 {
				req.Time = time.Date(2017, time.Month(1+b.pick(12)), 1+b.pick(28),
					b.pick(24), b.pick(60), 0, 0, time.UTC)
			}
			var groups []profile.Group
			if b.pick(2) == 0 {
				groups = []profile.Group{profile.Group([]string{"student", "faculty", "weird"}[b.pick(3)])}
			}
			want := normalizeDecision(naive.Decide(req, groups))
			for _, e := range engines {
				if got := normalizeDecision(e.Decide(req, groups)); !reflect.DeepEqual(want, got) {
					t.Fatalf("probe %d: %s disagrees with naive\nreq: %+v\nnaive: %+v\ngot: %+v",
						probe, EngineName(e), req, want, got)
				}
			}
		}
	})
}
