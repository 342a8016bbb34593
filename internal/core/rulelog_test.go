package core

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/reasoner"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/wal"
)

// durableFixture opens the standard test BMS over a durable store in
// dir, with Policy 2 registered as a deployment registers its policies
// at every boot.
func durableFixture(t testing.TB, dir string, adjust ...func(*Config)) *fixture {
	t.Helper()
	f, err := openDurableFixture(t, dir, adjust...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// openDurableFixture is durableFixture returning New's error.
func openDurableFixture(t testing.TB, dir string, adjust ...func(*Config)) (*fixture, error) {
	t.Helper()
	store, err := obstore.OpenDurable(obstore.DurableConfig{Dir: dir, SyncInterval: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	bms, err := New(fixtureConfig(func(c *Config) {
		c.Store = store
		for _, a := range adjust {
			a(c)
		}
	}))
	if err != nil {
		store.Close()
		return nil, err
	}
	t.Cleanup(bms.Close)
	if err := bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	return &fixture{bms: bms, now: testNow}, nil
}

// ruleState is what a restart must keep: every user's preferences, the
// conflicts, and the engine's decisions over a grid of flows.
type ruleState struct {
	Prefs     map[string][]policy.Preference
	Conflicts []reasoner.Conflict
	Decisions []enforce.Decision
}

func (f *fixture) ruleState(t *testing.T) ruleState {
	t.Helper()
	st := ruleState{Prefs: map[string][]policy.Preference{}, Conflicts: f.bms.Conflicts()}
	for _, u := range f.bms.Users().All() {
		if ps := f.bms.Preferences(u.ID); len(ps) > 0 {
			st.Prefs[u.ID] = ps
		}
		for _, svc := range []string{"concierge", "smart-meeting"} {
			for _, kind := range []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting} {
				d := f.bms.Engine().Decide(enforce.Request{
					ServiceID: svc, Purpose: policy.PurposeProvidingService, Kind: kind,
					SubjectID: u.ID, SpaceID: "dbh/2/r0", Time: f.now,
				}, u.Groups())
				d.Notifications, d.FromCache = nil, false
				st.Decisions = append(st.Decisions, d)
			}
		}
	}
	return st
}

// ruleFrames decodes every frame of the rule log in dir, the snapshot
// inflated, and returns the record kinds and the bytes they hold.
func ruleFrames(t *testing.T, dir string) (kinds []byte, records [][]byte) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, ruleLogFile+"*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.ScanFrames(bytes.NewReader(data), func(_ uint64, payload []byte) error {
			body := append([]byte(nil), payload[1:]...)
			if payload[0] == recSnapshot {
				if body, err = io.ReadAll(flate.NewReader(bytes.NewReader(body))); err != nil {
					return err
				}
			}
			kinds, records = append(kinds, payload[0]), append(records, body)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return kinds, records
}

func TestPreferenceCodecRoundTrip(t *testing.T) {
	// A field the codec does not know would be lost at the next restart.
	for typ, want := range map[reflect.Type]int{
		reflect.TypeOf(policy.Preference{}):  6,
		reflect.TypeOf(policy.Scope{}):       8,
		reflect.TypeOf(policy.Rule{}):        4,
		reflect.TypeOf(policy.DailyWindow{}): 3,
	} {
		if got := typ.NumField(); got != want {
			t.Errorf("%v has %d fields, the codec encodes %d: extend appendPreference and decodePreference", typ, got, want)
		}
	}
	g := &ruleGen{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 500; i++ {
		p := g.preference(fmt.Sprintf("p-%d", i), g.pick("mary", "bob", "ünïcode"))
		p.Name = strings.Repeat("n", g.rng.Intn(3))
		p.Scope.SensorType = sensor.Type(g.rng.Intn(8))
		p.Scope.Window = policy.DailyWindow{Start: g.rng.Intn(1440), End: g.rng.Intn(1440), Days: policy.Weekdays(g.rng.Intn(128))}
		p.Rule.NoiseEpsilon = g.rng.Float64()
		d := &wal.Decoder{Data: appendPreference(nil, &p)}
		got := decodePreference(d)
		if err := decoded(d); err != nil || !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip: %v\n got %+v\nwant %+v", err, got, p)
		}
	}
	// Every cut of a record is refused, never half-decoded.
	p := policy.Preference2NoLocation("mary")[0]
	enc := appendPreference(nil, &p)
	for n := 0; n < len(enc); n++ {
		d := &wal.Decoder{Data: enc[:n]}
		decodePreference(d)
		if decoded(d) == nil {
			t.Fatalf("a record cut to %d of %d bytes decoded", n, len(enc))
		}
	}
}

// TestRuleLogRestartKeepsPreferences: sets, a replacement that moves a
// preference to another owner, and removals, then a restart on the same
// directory — with the log as appended, and again after a checkpoint
// folded it — keeps every user's preferences, the conflicts, and the
// engine's decisions.
func TestRuleLogRestartKeepsPreferences(t *testing.T) {
	dir := t.TempDir()
	f := durableFixture(t, dir)
	g := &ruleGen{rng: rand.New(rand.NewSource(7)), users: []string{"mary", "bob", "carol"}}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("p-%d", g.rng.Intn(12))
		if g.rng.Intn(4) == 0 {
			if _, err := f.bms.RemovePreference(id); err != nil {
				t.Fatal(err)
			}
		} else if err := f.bms.SetPreference(g.preference(id, g.pick(g.users...))); err != nil {
			t.Fatal(err)
		}
	}
	want := f.ruleState(t)
	if len(want.Prefs) == 0 || len(want.Conflicts) == 0 {
		t.Fatalf("fixture has no preferences or no conflicts: %+v", want)
	}
	f.bms.Close()

	f = durableFixture(t, dir)
	if got := f.ruleState(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("rule state changed across a restart:\n got %+v\nwant %+v", got, want)
	}
	if err := f.bms.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if kinds, _ := ruleFrames(t, dir); !bytes.Equal(kinds, []byte{recSnapshot}) {
		t.Fatalf("a checkpoint left record kinds %v, want one snapshot", kinds)
	}
	f.bms.Close()

	f = durableFixture(t, dir)
	if got := f.ruleState(t); !reflect.DeepEqual(got, want) {
		t.Fatalf("rule state changed across a folded restart:\n got %+v\nwant %+v", got, want)
	}
}

// TestRuleLogConcurrentWritersAndCheckpoints: preference writers race
// store checkpoints, whose hook folds the log under the writers' feet.
// Whatever the interleaving, a restart replays what the node listed.
func TestRuleLogConcurrentWritersAndCheckpoints(t *testing.T) {
	const writers, mutations = 4, 150
	dir := t.TempDir()
	f := durableFixture(t, dir, churnUsers(writers))
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("churn-%d", i)
			g := &ruleGen{rng: rand.New(rand.NewSource(int64(i)))}
			for n := 0; n < mutations; n++ {
				id := fmt.Sprintf("%s-p%d", user, g.rng.Intn(3))
				if g.rng.Intn(3) == 0 {
					if _, err := f.bms.RemovePreference(id); err != nil {
						t.Error(err)
						return
					}
				} else if err := f.bms.SetPreference(g.preference(id, user)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for checkpoints := 0; ; checkpoints++ {
		select {
		case <-done:
			if checkpoints == 0 {
				t.Log("the writers finished before the first checkpoint")
			}
			want := f.ruleState(t)
			f.bms.Close()
			f = durableFixture(t, dir, churnUsers(writers))
			if got := f.ruleState(t); !reflect.DeepEqual(got, want) {
				t.Fatalf("rule state changed across a restart after %d racing checkpoints", checkpoints)
			}
			return
		default:
			if err := f.bms.Store().Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestRuleLogTornFinalFrameDropped: a crash mid-append leaves part of a
// frame at the end of the log. Recovery drops it — the mutation was
// never acknowledged — and the next record follows the last whole one.
func TestRuleLogTornFinalFrameDropped(t *testing.T) {
	p1, p2 := policy.Preference2NoLocation("mary")[0], policy.Preference1OfficeOccupancy("bob", "dbh/2/r1")
	for _, cut := range []int{3, 12, 0} { // inside the header, inside the body, a zeroed whole frame
		t.Run(fmt.Sprint(cut), func(t *testing.T) {
			dir := t.TempDir()
			f := durableFixture(t, dir)
			if err := f.bms.SetPreference(p1); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, ruleLogFile)
			whole, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.bms.SetPreference(p2); err != nil {
				t.Fatal(err)
			}
			f.bms.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			last := data[len(whole):]
			if cut == 0 {
				last = make([]byte, len(last))
			} else {
				last = last[:cut]
			}
			if err := os.WriteFile(path, append(whole, last...), 0o644); err != nil {
				t.Fatal(err)
			}

			f = durableFixture(t, dir)
			if got := f.bms.Preferences("mary"); len(got) != 1 {
				t.Fatalf("the whole record was not replayed: mary has %+v", got)
			}
			if got := f.bms.Preferences("bob"); len(got) != 0 {
				t.Fatalf("the torn record was replayed: bob has %+v", got)
			}
			if err := f.bms.SetPreference(p2); err != nil {
				t.Fatal(err)
			}
			f.bms.Close()
			f = durableFixture(t, dir)
			if got := f.bms.Preferences("bob"); len(got) != 1 {
				t.Fatalf("the record written after recovery was lost: bob has %+v", got)
			}
		})
	}
}

// TestRuleLogCorruptMiddleFrameRefusesOpen: a frame whose CRC fails
// with whole frames after it is damage, not a torn append. Serving
// without the rules it held would release what their owners withheld,
// so New refuses the directory.
func TestRuleLogCorruptMiddleFrameRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	f := durableFixture(t, dir)
	for _, user := range []string{"mary", "bob", "carol"} {
		if err := f.bms.SetPreference(policy.Preference2NoLocation(user)[0]); err != nil {
			t.Fatal(err)
		}
	}
	f.bms.Close()
	path := filepath.Join(dir, ruleLogFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := 8 + int(binary.LittleEndian.Uint32(data))
	data[first+20] ^= 0x40 // inside the second of three frames
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = openDurableFixture(t, dir)
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("New over a log with a damaged middle frame: %v, want a CRC mismatch", err)
	}
}

// TestForgetUserFoldsRuleLog: after ForgetUser no record in the rule
// log names the subject — not the records that installed, replaced and
// removed their preferences, and not the snapshot — while the other
// users' preferences stay.
func TestForgetUserFoldsRuleLog(t *testing.T) {
	dir := t.TempDir()
	f := durableFixture(t, dir)
	set := func(p policy.Preference) {
		t.Helper()
		if err := f.bms.SetPreference(p); err != nil {
			t.Fatal(err)
		}
	}
	set(policy.Preference2NoLocation("mary")[0])
	set(policy.Preference2NoLocation("bob")[0])
	if err := f.bms.Store().Checkpoint(); err != nil {
		t.Fatal(err) // mary is in the snapshot too
	}
	set(policy.Preference1OfficeOccupancy("mary", "dbh/2/r0"))
	gone := policy.Preference3ConciergeFineLocation("mary", "concierge")
	set(gone)
	if _, err := f.bms.RemovePreference(gone.ID); err != nil {
		t.Fatal(err)
	}
	names := func() (n int) {
		_, records := ruleFrames(t, dir)
		for _, r := range records {
			if bytes.Contains(r, []byte("mary")) {
				n++
			}
		}
		return n
	}
	if names() == 0 {
		t.Fatal("fixture: no record names mary before the erasure")
	}
	if _, _, err := f.bms.ForgetUser("mary"); err != nil {
		t.Fatal(err)
	}
	if n := names(); n != 0 {
		t.Fatalf("%d rule log records still name mary after ForgetUser", n)
	}
	f.bms.Close()
	f = durableFixture(t, dir)
	if got := f.bms.Preferences("bob"); len(got) != 1 {
		t.Fatalf("bob's preference did not survive mary's erasure: %+v", got)
	}
	if got := f.bms.Preferences("mary"); len(got) != 0 {
		t.Fatalf("mary's preferences came back: %+v", got)
	}
}

// TestRuleLogStaysBounded: a node that never checkpoints still folds
// its rule log. 10 000 churn mutations — 3.9 MB of records over a live
// set of at most 60 preferences — keep the file under foldFloor plus its
// snapshot plus one record, and a restart replays the live set.
func TestRuleLogStaysBounded(t *testing.T) {
	const (
		users     = 20
		mutations = 10000
	)
	dir := t.TempDir()
	f := durableFixture(t, dir, churnUsers(users))
	g := &ruleGen{rng: rand.New(rand.NewSource(3))}
	pad := strings.Repeat("x", 450)
	var largest, written int64
	for i := 0; i < mutations; i++ {
		user := fmt.Sprintf("churn-%d", g.rng.Intn(users))
		id := fmt.Sprintf("%s-p%d", user, g.rng.Intn(3))
		if g.rng.Intn(4) == 0 {
			if _, err := f.bms.RemovePreference(id); err != nil {
				t.Fatal(err)
			}
		} else {
			p := g.preference(id, user)
			p.Name = pad
			if err := f.bms.SetPreference(p); err != nil {
				t.Fatal(err)
			}
			written += int64(len(appendPreference(nil, &p)))
		}
		if i%100 == 99 {
			info, err := os.Stat(filepath.Join(dir, ruleLogFile))
			if err != nil {
				t.Fatal(err)
			}
			largest = max(largest, info.Size())
		}
	}
	if written < 3*foldFloor {
		t.Fatalf("fixture: %d bytes of records never pass the fold floor three times", written)
	}
	// The snapshot of 60 padded preferences compresses to a few kB.
	if bound := int64(foldFloor + 64<<10); largest > bound {
		t.Fatalf("the rule log reached %d bytes after %d bytes of records; the bound is %d", largest, written, bound)
	}
	want := f.ruleState(t)
	f.bms.Close()
	f = durableFixture(t, dir, churnUsers(users))
	if got := f.ruleState(t); !reflect.DeepEqual(got, want) {
		t.Fatal("replay of the self-folded log does not give the live set")
	}
}

// TestRuleLogWriteFailure: when the rule log cannot be written, a rule
// mutation fails with ErrRuleLog and changes nothing — neither
// Preferences nor the engine hold it — and ForgetUser reports the
// failure too.
func TestRuleLogWriteFailure(t *testing.T) {
	for _, how := range []string{"closed", "read-only"} {
		t.Run(how, func(t *testing.T) {
			dir := t.TempDir()
			f := durableFixture(t, dir)
			kept := policy.Preference2NoLocation("bob")[0]
			if err := f.bms.SetPreference(kept); err != nil {
				t.Fatal(err)
			}
			before := f.ruleState(t)
			epoch := f.bms.Engine().Epoch()

			l := f.bms.rules
			switch how {
			case "closed":
				l.f.Close()
			case "read-only":
				ro, err := os.Open(l.path)
				if err != nil {
					t.Fatal(err)
				}
				l.f.Close()
				l.f = ro
				l.w.Reset(ro)
			}
			if err := f.bms.SetPreference(policy.Preference2NoLocation("mary")[0]); !errors.Is(err, ErrRuleLog) {
				t.Fatalf("SetPreference with a broken log: %v, want ErrRuleLog", err)
			}
			if removed, err := f.bms.RemovePreference(kept.ID); removed || !errors.Is(err, ErrRuleLog) {
				t.Fatalf("RemovePreference with a broken log: %v, %v, want ErrRuleLog", removed, err)
			}
			if _, _, err := f.bms.ForgetUser("bob"); !errors.Is(err, ErrRuleLog) {
				t.Fatalf("ForgetUser with a broken log: %v, want ErrRuleLog", err)
			}
			if got := f.ruleState(t); !reflect.DeepEqual(got, before) {
				t.Fatalf("a refused mutation changed the rules:\n got %+v\nwant %+v", got, before)
			}
			if got := f.bms.Engine().Epoch(); got != epoch {
				t.Fatalf("a refused mutation reached the engine: epoch %d → %d", epoch, got)
			}
		})
	}
}

// TestSetPreferenceDurableAllocs: logging a preference write costs at
// most two allocations over the in-memory path: the record is encoded
// into a reused buffer and framed into a reused writer.
func TestSetPreferenceDurableAllocs(t *testing.T) {
	allocs := func(f *fixture) float64 {
		p := policy.Preference2NoLocation("mary")[0]
		return testing.AllocsPerRun(50, func() {
			if err := f.bms.SetPreference(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Both with the policy a durable fixture registers, whose conflict
	// detection a write pays for either way.
	memory := newFixture(t)
	if err := memory.bms.RegisterPolicy(policy.Policy2EmergencyLocation("dbh")); err != nil {
		t.Fatal(err)
	}
	durable := durableFixture(t, t.TempDir())
	if m, d := allocs(memory), allocs(durable); d > m+2 {
		t.Fatalf("a durable preference write allocates %.0f objects, the in-memory one %.0f", d, m)
	}
}

// BenchmarkSetPreferenceDurable replaces one user's opt-out on a node
// with a durable store: the in-memory write plus one logged, fsynced
// record. The directory is on tmpfs when there is one, so the count
// measures the code, not the disk.
func BenchmarkSetPreferenceDurable(b *testing.B) {
	dir, err := os.MkdirTemp("/dev/shm", "rulelog-bench-")
	if err != nil {
		dir = b.TempDir()
	} else {
		b.Cleanup(func() { os.RemoveAll(dir) })
	}
	f := durableFixture(b, dir)
	p := policy.Preference2NoLocation("mary")[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.bms.SetPreference(p); err != nil {
			b.Fatal(err)
		}
	}
}
