package colstore

// The flat cubes against the implementation they replaced. refRollups
// is that implementation — one map per time bucket, string-keyed, a
// heap object per cell, no notion of open or sealed — kept here as the
// oracle, fed by the never-evicting twin store as its listener and
// repaired from the twin's scan. Whatever the flat cubes answer through
// sealing, late rows, retention, erasure and restarts, it answers from
// maps it simply kept.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

type refOccKey struct {
	space string
	kind  sensor.ObservationKind
	user  string
}

type refOccEntry struct {
	count  int
	minSeq uint64
}

type refRdKey struct {
	sensor string
	kind   sensor.ObservationKind
	space  string
	user   string
}

type refRdEntry struct {
	count    int
	sum      float64
	min, max float64
	minSeq   uint64
}

type refRollups struct {
	twin *obstore.Store

	disabled   bool
	maxEntries int
	entries    int
	occ        map[int64]map[refOccKey]*refOccEntry // minute start, unix nanos
	rd         map[int64]map[refRdKey]*refRdEntry   // hour start, unix nanos
	dirtyOcc   map[int64]struct{}
	dirtyRd    map[int64]struct{}
}

func newRefRollups(twin *obstore.Store, maxEntries int) *refRollups {
	if maxEntries <= 0 {
		maxEntries = 1 << 20
	}
	r := &refRollups{twin: twin, maxEntries: maxEntries}
	r.rebuildAll()
	twin.SetListener(r)
	return r
}

func (r *refRollups) ObservationAppended(o sensor.Observation) {
	if r.disabled {
		return
	}
	r.observeOcc(o, o.Time.Truncate(time.Minute).UnixNano())
	r.observeRd(o, o.Time.Truncate(time.Hour).UnixNano())
	r.checkCap()
}

func (r *refRollups) checkCap() {
	if r.entries > r.maxEntries {
		r.disabled = true
		r.occ = map[int64]map[refOccKey]*refOccEntry{}
		r.rd = map[int64]map[refRdKey]*refRdEntry{}
		r.dirtyOcc = map[int64]struct{}{}
		r.dirtyRd = map[int64]struct{}{}
		r.entries = 0
	}
}

func (r *refRollups) ObservationsDeleted(dels []obstore.Deletion) {
	if r.disabled {
		return
	}
	for _, d := range dels {
		r.dirtyOcc[d.Time.Truncate(time.Minute).UnixNano()] = struct{}{}
		r.dirtyRd[d.Time.Truncate(time.Hour).UnixNano()] = struct{}{}
	}
}

// rebuildAll is what attaching to a store that already holds data did.
func (r *refRollups) rebuildAll() {
	r.occ = make(map[int64]map[refOccKey]*refOccEntry)
	r.rd = make(map[int64]map[refRdKey]*refRdEntry)
	r.dirtyOcc = make(map[int64]struct{})
	r.dirtyRd = make(map[int64]struct{})
	r.entries = 0
	r.disabled = false
	r.twin.Scan(obstore.Filter{}, func(o *sensor.Observation) bool {
		r.observeOcc(*o, o.Time.Truncate(time.Minute).UnixNano())
		r.observeRd(*o, o.Time.Truncate(time.Hour).UnixNano())
		return true
	})
	r.checkCap()
}

func (r *refRollups) repair() {
	if len(r.dirtyOcc) == 0 && len(r.dirtyRd) == 0 {
		return
	}
	for minute := range r.dirtyOcc {
		start := time.Unix(0, minute)
		r.entries -= len(r.occ[minute])
		delete(r.occ, minute)
		r.twin.Scan(obstore.Filter{From: start, To: start.Add(time.Minute)}, func(o *sensor.Observation) bool {
			r.observeOcc(*o, minute)
			return true
		})
		delete(r.dirtyOcc, minute)
	}
	for hour := range r.dirtyRd {
		start := time.Unix(0, hour)
		r.entries -= len(r.rd[hour])
		delete(r.rd, hour)
		r.twin.Scan(obstore.Filter{From: start, To: start.Add(time.Hour)}, func(o *sensor.Observation) bool {
			r.observeRd(*o, hour)
			return true
		})
		delete(r.dirtyRd, hour)
	}
	r.checkCap()
}

func (r *refRollups) observeOcc(o sensor.Observation, minute int64) {
	om := r.occ[minute]
	if om == nil {
		om = make(map[refOccKey]*refOccEntry)
		r.occ[minute] = om
	}
	k := refOccKey{space: o.SpaceID, kind: o.Kind, user: o.UserID}
	e := om[k]
	if e == nil {
		e = &refOccEntry{minSeq: o.Seq}
		om[k] = e
		r.entries++
	}
	e.count++
	if o.Seq < e.minSeq {
		e.minSeq = o.Seq
	}
}

func (r *refRollups) observeRd(o sensor.Observation, hour int64) {
	hm := r.rd[hour]
	if hm == nil {
		hm = make(map[refRdKey]*refRdEntry)
		r.rd[hour] = hm
	}
	k := refRdKey{sensor: o.SensorID, kind: o.Kind, space: o.SpaceID, user: o.UserID}
	e := hm[k]
	if e == nil {
		e = &refRdEntry{min: o.Value, max: o.Value, minSeq: o.Seq}
		hm[k] = e
		r.entries++
	} else {
		if o.Value < e.min {
			e.min = o.Value
		}
		if o.Value > e.max {
			e.max = o.Value
		}
		if o.Seq < e.minSeq {
			e.minSeq = o.Seq
		}
	}
	e.count++
	e.sum += o.Value
}

func (r *refRollups) lock() bool {
	if r.disabled {
		return false
	}
	r.repair()
	return !r.disabled
}

func (r *refRollups) visitOccupancy(f obstore.Filter, visit func(OccEntry)) bool {
	if !r.lock() {
		return false
	}
	spaces := spaceSetFor(f)
	eachBucket(r.occ, f.From, f.To, time.Minute, func(start int64, cells map[refOccKey]*refOccEntry) {
		minute := time.Unix(0, start).UTC()
		for k, e := range cells {
			if f.Kind != "" && k.kind != f.Kind || f.UserID != "" && k.user != f.UserID || spaces != nil && !spaces[k.space] {
				continue
			}
			visit(OccEntry{Minute: minute, SpaceID: k.space, Kind: k.kind, UserID: k.user, Count: e.count, MinSeq: e.minSeq})
		}
	})
	return true
}

func (r *refRollups) visitReadings(f obstore.Filter, visit func(ReadingEntry)) bool {
	if !r.lock() {
		return false
	}
	spaces := spaceSetFor(f)
	eachBucket(r.rd, f.From, f.To, time.Hour, func(start int64, cells map[refRdKey]*refRdEntry) {
		hour := time.Unix(0, start).UTC()
		for k, e := range cells {
			if f.SensorID != "" && k.sensor != f.SensorID || f.Kind != "" && k.kind != f.Kind ||
				f.UserID != "" && k.user != f.UserID || spaces != nil && !spaces[k.space] {
				continue
			}
			visit(ReadingEntry{Hour: hour, SensorID: k.sensor, Kind: k.kind, SpaceID: k.space, UserID: k.user,
				Count: e.count, Sum: e.sum, Min: e.min, Max: e.max, MinSeq: e.minSeq})
		}
	})
	return true
}

// visitRollup is VisitRollup's choice of cube over the reference's
// visitors.
func (r *refRollups) visitRollup(f obstore.Filter, needSensor, needValue bool, visit func(RollupCell)) bool {
	if f.AfterSeq != 0 || f.DeviceMAC != "" || len(f.SpaceIDs) > 0 || f.Limit != 0 {
		return false
	}
	hourly := needSensor || needValue || f.SensorID != ""
	dur := time.Minute
	if hourly {
		dur = time.Hour
	}
	if !bucketAligned(f.From, dur) || !bucketAligned(f.To, dur) {
		return false
	}
	if hourly {
		return r.visitReadings(f, func(e ReadingEntry) {
			visit(RollupCell{Bucket: e.Hour, SensorID: e.SensorID, Kind: e.Kind, SpaceID: e.SpaceID, UserID: e.UserID,
				Count: e.Count, Sum: e.Sum, Min: e.Min, Max: e.Max, MinSeq: e.MinSeq})
		})
	}
	return r.visitOccupancy(f, func(e OccEntry) {
		visit(RollupCell{Bucket: e.Minute, Kind: e.Kind, SpaceID: e.SpaceID, UserID: e.UserID, Count: e.Count, MinSeq: e.MinSeq})
	})
}

// tally collects a visitor's cells, counting repeats: a key with two
// cells in one bucket shows as a count of two.
func tally[E comparable](into map[E]int) func(E) {
	return func(e E) { into[e]++ }
}

// cubeFilterFor draws a filter over the dimensions the cubes key on,
// including values no row ever carried and windows that are hour
// aligned, minute aligned, and neither.
func cubeFilterFor(rng *rand.Rand, now time.Time) obstore.Filter {
	var f obstore.Filter
	if rng.Intn(2) == 0 {
		f.Kind = []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsPowerReading, sensor.ObsBLESighting}[rng.Intn(3)]
	}
	if rng.Intn(2) == 0 {
		f.UserID = []string{"u0", "u1", "u2", "u3", "u4", "nobody"}[rng.Intn(6)]
	}
	if rng.Intn(3) == 0 {
		f.SpaceIDs = [][]string{{"s0"}, {"s1", "s3"}, {"nowhere"}, {"s2", "nowhere"}}[rng.Intn(4)]
	}
	if rng.Intn(3) == 0 {
		f.SensorID = []string{"ap-0", "ap-1", "ap-2", "ap-3", "ap-none"}[rng.Intn(5)]
	}
	if rng.Intn(3) > 0 {
		unit := []time.Duration{time.Hour, time.Minute, 7 * time.Second}[rng.Intn(3)]
		from := now.Truncate(unit).Add(-time.Duration(rng.Intn(2*int(time.Hour/unit)+1)) * unit)
		switch rng.Intn(3) {
		case 0:
			f.From = from
		case 1:
			f.To = from
		default:
			f.From, f.To = from, from.Add(time.Duration(1+rng.Intn(90))*unit)
		}
	}
	return f
}

// sealedStarts lists the buckets of c that hold no index. Caller holds
// the cubes' lock.
func sealedStarts[K comparable, C interface{ key() K }](c *cube[K, C]) map[int64]bool {
	out := map[int64]bool{}
	for start, b := range c.buckets {
		if b.index == nil {
			out[start] = true
		}
	}
	return out
}

// reopened counts the buckets of c that were sealed and are open now.
func reopened[K comparable, C interface{ key() K }](c *cube[K, C], sealed map[int64]bool) (n int) {
	for start := range c.open {
		if sealed[start] {
			n++
		}
	}
	return n
}

// checkSealed holds c to what a compaction pass leaves behind: every
// bucket ending at or before end has no index and no slack, the open
// set names exactly the buckets that hold an index, and n is the cell
// count. It returns how many sealed buckets it saw. Caller holds the
// cubes' lock.
func checkSealed[K comparable, C interface{ key() K }](t *testing.T, stage string, c *cube[K, C], end int64) (sealed int) {
	t.Helper()
	cells := 0
	for start, b := range c.buckets {
		cells += len(b.cells)
		at := time.Unix(0, start).UTC()
		if _, open := c.open[start]; open != (b.index != nil) {
			t.Fatalf("%s: bucket %v: in the open set %v, holds an index %v", stage, at, open, b.index != nil)
		}
		if b.index != nil && len(b.index) != len(b.cells) {
			t.Fatalf("%s: bucket %v: %d index entries for %d cells", stage, at, len(b.index), len(b.cells))
		}
		if start+int64(c.width) > end {
			continue
		}
		sealed++
		if b.index != nil || cap(b.cells) != len(b.cells) {
			t.Fatalf("%s: bucket %v ends at or before the newest compacted bucket and is not sealed (index %v, %d cells in cap %d)",
				stage, at, b.index != nil, len(b.cells), cap(b.cells))
		}
	}
	if cells != c.n || len(c.open) > len(c.buckets) {
		t.Fatalf("%s: the cube counts %d cells and %d open buckets, its %d buckets hold %d", stage, c.n, len(c.open), len(c.buckets), cells)
	}
	return sealed
}

func TestCubeMatchesReferenceUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// The clock crosses 13:00 mid-run, so late rows land in a
			// sealed hour as well as in sealed minutes. The last seed runs
			// under a cap the cubes trip over and, after retention has
			// thinned them, come back under at a restart.
			w := &evictionWorld{t: t, dir: t.TempDir(), now: csNow.Add(45 * time.Minute)}
			if seed == 3 {
				w.rollupMax = 350
			}
			w.mirrored = mirrored{t: t, twin: obstore.New()}
			retainOn(w.twin, evictionRetention...)
			w.open()
			defer func() { w.src.Close() }()
			ref := newRefRollups(w.twin, w.rollupMax)

			var reopenedMinutes, reopenedHours, sealedSeen, trips int
			recovered := false
			steps := 140
			if testing.Short() {
				steps = 100
			}
			for i := 0; i < steps; i++ {
				var step string
				switch op := rng.Intn(20); {
				case op < 9:
					step = "append"
					// Sealing is invisible from outside; the test looks inside
					// to know the rows it appends re-open sealed buckets.
					w.cs.roll.mu.Lock()
					minutes, hours := sealedStarts(&w.cs.roll.occ), sealedStarts(&w.cs.roll.rd)
					w.cs.roll.mu.Unlock()
					w.ingest(rng, 1+rng.Intn(60))
					w.cs.roll.mu.Lock()
					reopenedMinutes += reopened(&w.cs.roll.occ, minutes)
					reopenedHours += reopened(&w.cs.roll.rd, hours)
					w.cs.roll.mu.Unlock()
				case op < 13:
					step = "compact"
					w.now = w.now.Add(time.Duration(rng.Intn(150)) * time.Second)
					w.compact()
					w.cs.roll.mu.Lock()
					end := w.cs.lastBucketEnd.Load()
					sealedSeen += checkSealed(t, fmt.Sprintf("step %d", i), &w.cs.roll.occ, end)
					sealedSeen += checkSealed(t, fmt.Sprintf("step %d", i), &w.cs.roll.rd, end)
					w.cs.roll.mu.Unlock()
				case op < 15:
					step = "sweep"
					w.sweep(w.now)
					w.unlogged = true
				case op < 17:
					step = "delete-user"
					w.deleteUser(fmt.Sprintf("u%d", rng.Intn(5)))
					w.unlogged = true
				default:
					step = "restart"
					w.restart()
					ref.rebuildAll()
				}
				step = fmt.Sprintf("step %d (%s)", i, step)

				for trial := 0; trial < 6; trial++ {
					f := cubeFilterFor(rng, w.now)
					if trial == 0 {
						f = obstore.Filter{}
					}
					gotOcc, wantOcc := map[OccEntry]int{}, map[OccEntry]int{}
					fo := f
					fo.SensorID = "" // the minute cube has no sensor dimension
					_, gotOK := w.cs.VisitOccupancy(fo, tally(gotOcc))
					if wantOK := ref.visitOccupancy(fo, tally(wantOcc)); gotOK != wantOK {
						t.Fatalf("%s: VisitOccupancy ok=%v, the reference %v", step, gotOK, wantOK)
					}
					if !reflect.DeepEqual(gotOcc, wantOcc) {
						t.Fatalf("%s: filter %+v: VisitOccupancy gave %d cells, the reference %d", step, fo, len(gotOcc), len(wantOcc))
					}
					gotRd, wantRd := map[ReadingEntry]int{}, map[ReadingEntry]int{}
					_, gotOK = w.cs.VisitReadings(f, tally(gotRd))
					if wantOK := ref.visitReadings(f, tally(wantRd)); gotOK != wantOK {
						t.Fatalf("%s: VisitReadings ok=%v, the reference %v", step, gotOK, wantOK)
					}
					if !reflect.DeepEqual(gotRd, wantRd) {
						t.Fatalf("%s: filter %+v: VisitReadings gave %d cells, the reference %d", step, f, len(gotRd), len(wantRd))
					}
					fr := f
					fr.SpaceIDs = nil
					needSensor, needValue := rng.Intn(3) == 0, rng.Intn(3) == 0
					gotCells, wantCells := map[RollupCell]int{}, map[RollupCell]int{}
					gotOK = w.cs.VisitRollup(fr, needSensor, needValue, tally(gotCells))
					if wantOK := ref.visitRollup(fr, needSensor, needValue, tally(wantCells)); gotOK != wantOK {
						t.Fatalf("%s: filter %+v: VisitRollup ok=%v, the reference %v", step, fr, gotOK, wantOK)
					}
					if !reflect.DeepEqual(gotCells, wantCells) {
						t.Fatalf("%s: filter %+v: VisitRollup gave %d cells, the reference %d", step, fr, len(gotCells), len(wantCells))
					}
					for e, n := range gotOcc {
						if n != 1 {
							t.Fatalf("%s: %d cells for %+v", step, n, e)
						}
					}
				}
				st := w.cs.Stats()
				if st.RollupEntries != ref.entries || st.RollupDisabled != ref.disabled {
					t.Fatalf("%s: %d entries (disabled %v), the reference holds %d (disabled %v)",
						step, st.RollupEntries, st.RollupDisabled, ref.entries, ref.disabled)
				}
				if st.RollupDisabled && st.RollupBytes != 0 || !st.RollupDisabled && st.RollupBytes < int64(st.RollupEntries)*int64(unsafe.Sizeof(occCell{})) {
					t.Fatalf("%s: %d entries, disabled %v, yet RollupBytes = %d", step, st.RollupEntries, st.RollupDisabled, st.RollupBytes)
				}
				if st.RollupDisabled {
					trips++
				} else if trips > 0 {
					recovered = true
				}
			}
			if w.rollupMax == 0 && (reopenedMinutes == 0 || reopenedHours == 0 || sealedSeen == 0) {
				t.Fatalf("late rows re-opened %d sealed minutes and %d sealed hours, %d sealed buckets checked: the run exercised nothing",
					reopenedMinutes, reopenedHours, sealedSeen)
			}
			if capped := w.rollupMax > 0; capped != (trips > 0) || capped != recovered {
				t.Fatalf("cap %d: the cubes were off after %d of %d steps, back on afterwards: %v; want both under the cap and neither without",
					w.rollupMax, trips, steps, recovered)
			}
			t.Logf("%d rows ingested, %d live, %d cells; late rows re-opened %d sealed minutes, %d sealed hours; cubes off after %d steps",
				w.twin.Stats().Ingested, w.twin.Len(), ref.entries, reopenedMinutes, reopenedHours, trips)
		})
	}
}

func TestLateRowReopensSealedBucket(t *testing.T) {
	src, cs := newPair(t, "")
	minute := csNow.Add(-10 * time.Minute) // 11:50, in the hour that ends at csNow
	add := func(user string, at time.Time, v float64) sensor.Observation {
		t.Helper()
		o, err := src.Append(obsAt("ap-1", "s1", user, sensor.ObsWiFiConnect, at, v))
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	first := add("u1", minute.Add(5*time.Second), 3)
	add("u1", minute.Add(6*time.Second), 9)
	add("u2", minute.Add(7*time.Second), 4)
	add("u3", csNow.Add(-time.Second), 1) // 11:59: compaction passes the whole hour
	sealed := func(stage string) {
		t.Helper()
		if _, err := cs.CompactOnce(); err != nil {
			t.Fatal(err)
		}
		r := cs.roll
		r.mu.Lock()
		defer r.mu.Unlock()
		// The pass compacted 11:59, so every bucket the test fills has ended.
		end := cs.lastBucketEnd.Load()
		if n := checkSealed(t, stage, &r.occ, end) + checkSealed(t, stage, &r.rd, end); n != 3 || len(r.occ.open)+len(r.rd.open) != 0 {
			t.Fatalf("%s: %d sealed buckets, %d minutes and %d hours still open; want 2 minutes and 1 hour, all sealed",
				stage, n, len(r.occ.open), len(r.rd.open))
		}
	}
	sealed("first pass")

	// Late rows: one for a key the sealed buckets hold, one for a new key.
	add("u1", minute.Add(30*time.Second), 1)
	late := add("u9", minute.Add(31*time.Second), 20)
	cs.roll.mu.Lock()
	if _, open := cs.roll.occ.open[minute.UnixNano()]; !open {
		t.Fatal("the late rows' minute was not re-opened")
	}
	if _, open := cs.roll.rd.open[minute.Truncate(time.Hour).UnixNano()]; !open {
		t.Fatal("the late rows' hour was not re-opened")
	}
	// Open buckets hold a full index; the 11:59 minute is still sealed.
	checkSealed(t, "re-opened", &cs.roll.occ, 0)
	checkSealed(t, "re-opened", &cs.roll.rd, 0)
	cs.roll.mu.Unlock()

	check := func(stage string) {
		t.Helper()
		occ := map[OccEntry]int{}
		if _, ok := cs.VisitOccupancy(obstore.Filter{From: minute, To: minute.Add(time.Minute)}, tally(occ)); !ok {
			t.Fatalf("%s: cubes unavailable", stage)
		}
		wantOcc := map[OccEntry]int{
			{Minute: minute, SpaceID: "s1", Kind: sensor.ObsWiFiConnect, UserID: "u1", Count: 3, MinSeq: first.Seq}:     1,
			{Minute: minute, SpaceID: "s1", Kind: sensor.ObsWiFiConnect, UserID: "u2", Count: 1, MinSeq: first.Seq + 2}: 1,
			{Minute: minute, SpaceID: "s1", Kind: sensor.ObsWiFiConnect, UserID: "u9", Count: 1, MinSeq: late.Seq}:      1,
		}
		if !reflect.DeepEqual(occ, wantOcc) {
			t.Fatalf("%s: minute cells\n got %v\nwant %v", stage, occ, wantOcc)
		}
		rd := map[ReadingEntry]int{}
		cs.VisitReadings(obstore.Filter{}, tally(rd))
		hour := minute.Truncate(time.Hour)
		cell := func(user string, n int, sum, lo, hi float64, minSeq uint64) ReadingEntry {
			return ReadingEntry{Hour: hour, SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, SpaceID: "s1", UserID: user,
				Count: n, Sum: sum, Min: lo, Max: hi, MinSeq: minSeq}
		}
		wantRd := map[ReadingEntry]int{
			cell("u1", 3, 13, 1, 9, first.Seq): 1, cell("u2", 1, 4, 4, 4, first.Seq+2): 1,
			cell("u3", 1, 1, 1, 1, first.Seq+3): 1, cell("u9", 1, 20, 20, 20, late.Seq): 1,
		}
		if !reflect.DeepEqual(rd, wantRd) {
			t.Fatalf("%s: hour cells\n got %v\nwant %v", stage, rd, wantRd)
		}
	}
	check("re-opened")
	sealed("second pass")
	check("sealed again")
}

// TestErasureReachesInternTable: once a subject is erased and the cubes
// have been read, nothing the cubes hold names them — no cell, no
// intern entry — and if they come back they are a new id. An erasure
// that keeps some rows leaves those attributed instead.
func TestErasureReachesInternTable(t *testing.T) {
	src, cs := newPair(t, "")
	for i := 0; i < 300; i++ {
		at := csNow.Add(-time.Duration(1+i%90) * time.Minute)
		if _, err := src.Append(obsAt(fmt.Sprintf("ap-%d", i%3), fmt.Sprintf("s%d", i%4), fmt.Sprintf("u%d", i%5), sensor.ObsWiFiConnect, at, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	r := cs.roll
	r.mu.Lock()
	oldID, known := r.users.ids["u2"]
	r.mu.Unlock()
	if !known {
		t.Fatal("u2 was never interned: the test exercises nothing")
	}

	if src.DeleteUser("u2", nil) == 0 {
		t.Fatal("DeleteUser removed nothing")
	}
	entries, _, ok := cs.OccupancyRollup(time.Time{}, time.Time{})
	if !ok || len(entries) == 0 {
		t.Fatal("cubes unavailable after the erasure")
	}
	r.mu.Lock()
	if _, still := r.users.ids["u2"]; still {
		t.Fatal("the intern table still maps the erased subject")
	}
	for id, s := range r.users.strs {
		if s == "u2" {
			t.Fatalf("intern slot %d still spells the erased subject", id)
		}
	}
	for _, b := range r.occ.buckets {
		for _, c := range b.cells {
			if c.user == oldID {
				t.Fatal("a minute cell still carries the erased subject's id")
			}
		}
	}
	for _, b := range r.rd.buckets {
		for _, c := range b.cells {
			if c.user == oldID {
				t.Fatal("an hour cell still carries the erased subject's id")
			}
		}
	}
	r.mu.Unlock()
	for _, e := range entries {
		if e.UserID == "u2" || e.UserID == "" {
			t.Fatalf("a cell surfaced the erased subject or their blanked slot: %+v", e)
		}
	}

	if _, err := src.Append(obsAt("ap-0", "s0", "u2", sensor.ObsWiFiConnect, csNow.Add(-3*time.Minute), 1)); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	newID := r.users.ids["u2"]
	r.mu.Unlock()
	if newID == oldID {
		t.Fatalf("the returning subject got the erased id %d back", oldID)
	}
	got := map[OccEntry]int{}
	cs.VisitOccupancy(obstore.Filter{UserID: "u2"}, tally(got))
	if len(got) != 1 {
		t.Fatalf("the returning subject has %d cells, want the one new row's", len(got))
	}

	// An erasure that keeps some of the subject's rows (in s1) leaves
	// them attributed: the subject keeps their id and every kept row
	// still counts under them.
	kept := src.Count(obstore.Filter{UserID: "u3", SpaceIDs: []string{"s1"}})
	if kept == 0 {
		t.Fatal("precondition: u3 has no row in s1")
	}
	r.mu.Lock()
	u3 := r.users.ids["u3"]
	r.mu.Unlock()
	if src.DeleteUser("u3", func(o *sensor.Observation) bool { return o.SpaceID == "s1" }) == 0 {
		t.Fatal("the partial erasure removed nothing")
	}
	counted := 0
	cs.VisitOccupancy(obstore.Filter{}, func(e OccEntry) {
		if e.UserID == "" {
			t.Errorf("a cell lost its subject: %+v", e)
		}
		if e.UserID == "u3" {
			counted += e.Count
		}
	})
	if counted != kept {
		t.Fatalf("the cubes count %d of u3's rows, want the %d kept", counted, kept)
	}
	r.mu.Lock()
	if id, ok := r.users.ids["u3"]; !ok || id != u3 {
		t.Errorf("a partial erasure re-interned u3: id %d → %d (%v)", u3, id, ok)
	}
	r.mu.Unlock()

	// An erasure whose keep holds nothing back drops the subject from
	// the intern table, as an unconditional one does.
	if src.DeleteUser("u4", func(*sensor.Observation) bool { return false }) == 0 {
		t.Fatal("the erasure of u4 removed nothing")
	}
	cs.VisitOccupancy(obstore.Filter{}, func(OccEntry) {})
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, still := r.users.ids["u4"]; still {
		t.Fatal("an erasure that kept nothing left the subject in the intern table")
	}
}

// TestCubeCellFootprint holds the cubes to what they are for: a sealed
// cell costs its fixed width and little more (the map-of-maps cubes
// cost ≈ 137 B), and folding a row into a cell an open bucket already
// holds allocates nothing.
func TestCubeCellFootprint(t *testing.T) {
	if got := [2]uintptr{unsafe.Sizeof(occCell{}), unsafe.Sizeof(rdCell{})}; got != [2]uintptr{24, 56} {
		t.Fatalf("cells are %v bytes wide, want 24 and 56", got)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// 100 minutes of a 1000-subject building: every row is its own
	// minute cell, as at the benchmark's quiesce point.
	st := &Store{}
	r := newRollups(st, 1<<30)
	base := csNow.Add(-3 * time.Hour)
	seq := uint64(0)
	for m := 0; m < 100; m++ {
		for u := 0; u < 1000; u++ {
			seq++
			space := (u + m/6) % 60
			r.observe(sensor.Observation{Seq: seq, SensorID: fmt.Sprintf("ap-%d", space), Kind: sensor.ObsWiFiConnect,
				Time:    base.Add(time.Duration(m)*time.Minute + time.Duration(u)*time.Millisecond),
				SpaceID: fmt.Sprintf("room-%d", space), UserID: fmt.Sprintf("u%04d", u), Value: float64(u)})
		}
	}
	st.lastBucketEnd.Store(csNow.UnixNano())
	r.seal()
	runtime.GC()
	runtime.ReadMemStats(&after)
	_, cells, bytes := r.stats()
	if cells < 100_000 {
		t.Fatalf("%d cells from %d rows: the layout aggregates more than the test means it to", cells, seq)
	}
	perCell := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(cells)
	t.Logf("%d cells, %.1f B resident per cell, RollupBytes says %.1f", cells, perCell, float64(bytes)/float64(cells))
	if perCell > 64 {
		t.Fatalf("%.1f B resident per sealed cell, want at most 64", perCell)
	}
	if est := float64(bytes) / float64(cells); est < perCell*0.75 || est > perCell*1.25 {
		t.Fatalf("RollupBytes estimates %.1f B per cell, the heap says %.1f", est, perCell)
	}

	o := sensor.Observation{Seq: seq + 1, SensorID: "ap-1", Kind: sensor.ObsWiFiConnect, Time: csNow.Add(time.Minute),
		SpaceID: "room-1", UserID: "u0001", Value: 1}
	r.observe(o)
	if _, open := r.occ.open[r.occ.start(o.Time)]; !open {
		t.Fatal("a row past the newest compacted bucket did not leave its bucket open")
	}
	if allocs := testing.AllocsPerRun(200, func() { r.observe(o) }); allocs != 0 {
		t.Fatalf("observe on an existing cell of an open bucket allocates %.1f times", allocs)
	}
	runtime.KeepAlive(r)
}
