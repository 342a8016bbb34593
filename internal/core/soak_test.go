package core

import (
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/enforce"
	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/profile"
	"github.com/tippers/tippers/internal/sensor"
)

// treeBytes sums the regular files under dir; a missing dir holds none.
func treeBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return total
}

// soakSampler is one resource the soak reads once per simulated day.
// An unasserted one is printed with the rest and carries the reason
// it is not held to a plateau yet.
type soakSampler struct {
	name       string
	read       func() float64
	unasserted string
}

// TestSoakResourcesPlateau ages one durable node with the columnar tier
// under a fake clock: 24 occupants, Policy 2 with a week's retention,
// 36 simulated days with compaction and a retention sweep every hour,
// and emergency reads, preference churn, inbox drains and an erasure a
// day mixed in. Once the retention window has filled, no resource may
// keep growing with the node's age: each sample's maximum over the last
// week is held within 10 % of its maximum over the second week — the
// segment bytes written in a day among them, which retention's
// rewrites would push up. The WAL is also held to its bound: sampled
// right after a commit, it holds no more than one simulated hour of
// appends.
func TestSoakResourcesPlateau(t *testing.T) {
	const (
		population = 24
		days       = 36
		reads      = 5 // emergency reads per simulated hour
	)
	dir := t.TempDir()
	start := time.Date(2026, 3, 2, 0, 0, 0, 0, time.UTC)
	var now atomic.Int64
	now.Store(start.UnixNano())
	setNow := func(at time.Time) { now.Store(at.UnixNano()) }

	store, err := obstore.OpenDurable(obstore.DurableConfig{Dir: dir, SyncInterval: time.Hour,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	occupant := func(i int) string { return fmt.Sprintf("occ-%02d", i) }
	mac := func(i int) string { return fmt.Sprintf("5a:00:00:00:00:%02x", i) }
	f := newFixtureWith(t, func(c *Config) {
		c.Store = store
		c.Clock = func() time.Time { return time.Unix(0, now.Load()).UTC() }
		for i := 0; i < population; i++ {
			c.Users.MustAdd(profile.User{
				ID: occupant(i), Name: occupant(i),
				Profiles:   []profile.Profile{{Group: profile.GroupGradStudent}},
				DeviceMACs: []string{mac(i)},
			})
		}
	})
	bms := f.bms
	week := isodur.MustParse("P7D")
	p2 := policy.Policy2EmergencyLocation("dbh")
	p2.Retention = week
	if err := bms.RegisterPolicy(p2); err != nil {
		t.Fatal(err)
	}
	// Policy 2 retains the Wi-Fi rows; the BLE sightings, which an
	// erasure removes, are kept for the same week.
	store.SetDefaultRetention(week)

	var segWritten float64 // the counter at the last sample
	samplers := []soakSampler{
		{name: "heap_live_bytes", read: func() float64 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		}},
		{name: "wal_bytes", read: func() float64 { return float64(treeBytes(t, filepath.Join(dir, "wal"))) }},
		{name: "segment_and_manifest_bytes", read: func() float64 {
			return float64(treeBytes(t, filepath.Join(dir, "colstore")))
		}},
		{name: "segment_bytes_written_daily", read: func() float64 {
			total, _ := bms.Metrics().LookupValue("tippers_colstore_segment_bytes_written_total", nil)
			day := total - segWritten
			segWritten = total
			return day
		}},
		{name: "inbox_entries", read: func() float64 {
			bms.mu.RLock()
			defer bms.mu.RUnlock()
			n := 0
			for _, box := range bms.inbox {
				n += len(box)
			}
			return float64(n)
		}, unasserted: "one notification per overriding read (ROADMAP item 17)"},
		{name: "memo_entries", read: func() float64 {
			v, _ := bms.Metrics().LookupValue("tippers_enforce_cache_entries", nil)
			return v
		}, unasserted: "the memo holds the current minute's decisions only, a handful that no 10 % bound fits"},
		{name: "hot_log_rows", read: func() float64 { return float64(store.Resident()) }},
		{name: "goroutines", read: func() float64 { return float64(runtime.NumGoroutine()) }},
		{name: "open_files", read: func() float64 {
			fds, err := os.ReadDir("/proc/self/fd")
			if err != nil {
				return 0 // no procfs: nothing to compare
			}
			return float64(len(fds))
		}},
	}
	samples := make([][]float64, len(samplers)) // [sampler][day-1]

	rng := rand.New(rand.NewSource(19))
	aps := []string{"ap-1", "ap-2"}
	opted := make(map[int]bool)
	for h := 0; h < days*24; h++ {
		hour := start.Add(time.Duration(h) * time.Hour)
		setNow(hour.Add(59 * time.Minute))
		for i := 0; i < population; i++ {
			for k, kind := range []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsWiFiConnect, sensor.ObsBLESighting} {
				o := sensor.Observation{
					SensorID: aps[(i+k)%2], Kind: kind, DeviceMAC: mac(i),
					Time: hour.Add(time.Duration(rng.Intn(3600)) * time.Second),
				}
				if kind == sensor.ObsBLESighting {
					o.SensorID = "ble-1"
				}
				if err := bms.Ingest(o); err != nil {
					t.Fatal(err)
				}
			}
		}
		for r := 0; r < reads; r++ {
			if _, err := bms.RequestUser(enforce.Request{
				ServiceID: "bms-emergency", Purpose: policy.PurposeEmergencyResponse,
				Kind: sensor.ObsWiFiConnect, SubjectID: occupant(rng.Intn(population)),
				Time: hour.Add(59 * time.Minute), From: hour, To: hour.Add(time.Hour),
			}); err != nil {
				t.Fatal(err)
			}
		}
		// Preference churn: one occupant a simulated hour opts out of
		// location sensing (which Policy 2 overrides) or back in.
		if i := rng.Intn(population); opted[i] {
			for _, p := range policy.Preference2NoLocation(occupant(i)) {
				if _, err := bms.RemovePreference(p.ID); err != nil {
					t.Fatal(err)
				}
			}
			delete(opted, i)
		} else {
			for _, p := range policy.Preference2NoLocation(occupant(i)) {
				if err := bms.SetPreference(p); err != nil {
					t.Fatal(err)
				}
			}
			opted[i] = true
		}
		// One occupant's IoTA a simulated hour drains their inbox.
		bms.FetchNotifications(occupant(rng.Intn(population)))
		if h%24 == 12 {
			i := rng.Intn(population)
			if _, _, err := bms.ForgetUser(occupant(i)); err != nil {
				t.Fatal(err)
			}
			delete(opted, i)
		}

		setNow(hour.Add(time.Hour))
		if _, err := bms.Columnar().CompactOnce(); err != nil {
			t.Fatal(err)
		}
		store.Sweep(hour.Add(time.Hour))
		if h%24 == 23 {
			for s, sm := range samplers {
				samples[s] = append(samples[s], sm.read())
			}
		}
	}

	maxOf := func(xs []float64) float64 {
		m := xs[0]
		for _, x := range xs[1:] {
			m = max(m, x)
		}
		return m
	}
	var table strings.Builder
	for s, sm := range samplers {
		second, last := maxOf(samples[s][7:14]), maxOf(samples[s][days-7:])
		fmt.Fprintf(&table, "%-28s week 2 max %12.0f, last week max %12.0f, by day %v\n", sm.name, second, last, samples[s])
		if sm.unasserted != "" {
			continue
		}
		if sm.name == "wal_bytes" {
			const hourOfAppends = population * 3 * 128 // rows an hour, at most 128 B a frame
			for d, b := range samples[s] {
				if b > hourOfAppends {
					t.Errorf("day %d: wal/ holds %.0f B after a commit, above one hour of appends (%d B)", d+1, b, hourOfAppends)
					break
				}
			}
		}
		if last > second*1.1 || last < second*0.9 {
			t.Errorf("%s does not plateau: last-week max %.0f against a second-week max of %.0f", sm.name, last, second)
		}
	}
	t.Logf("daily samples:\n%s", table.String())
}
