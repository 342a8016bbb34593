package colstore

// Eviction is invisible: a durable row store whose sealed rows live in
// the segments alone answers every question exactly as a plain store
// that kept every row — through ingest, compaction, retention, erasure,
// checkpoints, restarts of both directories, and a SIGKILL between the
// manifest commit and the eviction it licenses.

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// evictionWorld is a durable store + on-disk tier under one directory,
// its never-evicted twin, and the clock both sides run on.
type evictionWorld struct {
	mirrored
	t   *testing.T
	dir string
	cs  *Store
	now time.Time
	// unlogged is set by a deletion and cleared by a checkpoint: the WAL
	// carries no delete records, so a hot row deleted since the last
	// checkpoint would come back at a restart (on any store, evicting or
	// not). The world checkpoints before it restarts in that state.
	unlogged bool
}

var evictionRetention = []obstore.RetentionRule{
	{TTL: isodur.MustParse("PT25M")},
	{Kind: sensor.ObsPowerReading, TTL: isodur.MustParse("PT8M")},
	{Kind: sensor.ObsWiFiConnect, TTL: isodur.MustParse("PT14M")},
}

func (w *evictionWorld) open() {
	w.t.Helper()
	src, err := obstore.OpenDurable(obstore.DurableConfig{
		Dir: filepath.Join(w.dir, "store"), SegmentBytes: 4 << 10,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		w.t.Fatal(err)
	}
	cs, err := Open(Config{Dir: filepath.Join(w.dir, "col"), BucketDur: time.Minute, Clock: func() time.Time { return w.now }})
	if err != nil {
		w.t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		w.t.Fatal(err)
	}
	w.src, w.cs = src, cs
	// The clock and the retention rules are configuration, not data:
	// reinstall them.
	src.SetClock(func() time.Time { return w.now })
	retainOn(src, evictionRetention...)
}

func (w *evictionWorld) restart() {
	w.t.Helper()
	if w.unlogged {
		w.checkpoint()
	}
	if err := w.src.Close(); err != nil {
		w.t.Fatal(err)
	}
	w.open()
}

func (w *evictionWorld) checkpoint() {
	w.t.Helper()
	if err := w.src.Checkpoint(); err != nil {
		w.t.Fatal(err)
	}
	w.unlogged = false
}

func (w *evictionWorld) compact() {
	w.t.Helper()
	if _, err := w.cs.CompactOnce(); err != nil {
		w.t.Fatal(err)
	}
	// Everything at or below the watermark has left the hot log: what
	// stays is the readable rows above it, and expired ones no commit
	// has passed yet.
	if got, want := w.src.Resident(), w.src.Count(obstore.Filter{AfterSeq: w.cs.Watermark()}); got < want {
		w.t.Fatalf("%d rows resident after compaction, %d readable above the watermark", got, want)
	}
}

func (w *evictionWorld) ingest(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		age := time.Duration(rng.Intn(150)) * time.Second
		if rng.Intn(12) == 0 {
			age += time.Duration(5+rng.Intn(20)) * time.Minute // a late arrival: an older bucket, a newer seq
		}
		o := obsAt(fmt.Sprintf("ap-%d", rng.Intn(4)), fmt.Sprintf("s%d", rng.Intn(4)),
			[]string{"", "u0", "u1", "u2", "u3", "u4"}[rng.Intn(6)], sensor.ObsWiFiConnect, w.now.Add(-age), float64(rng.Intn(100)))
		switch rng.Intn(5) {
		case 0:
			o.Kind = sensor.ObsPowerReading
			o.Payload = map[string]string{"unit": "W", "phase": strconv.Itoa(rng.Intn(3))}
		case 1:
			o.DeviceMAC = fmt.Sprintf("aa:%02d", rng.Intn(3))
		}
		w.append(o)
	}
}

// check compares every reader of the store with the twin. Len counts
// stored rows, and the two drop expired rows at different times (the
// twin at a sweep, src at a sweep or a compaction), so only reads are
// compared with it.
func (w *evictionWorld) check(rng *rand.Rand, step string) {
	w.t.Helper()
	if got, want := w.src.Len(), w.src.Count(obstore.Filter{}); got < want {
		w.t.Fatalf("%s: Len = %d, %d rows readable", step, got, want)
	}
	if got, want := w.src.Users(), w.twin.Users(); !reflect.DeepEqual(got, want) {
		w.t.Fatalf("%s: Users = %v, the twin lists %v", step, got, want)
	}
	maxSeq := w.twin.LastSeq()
	for trial := 0; trial < 8; trial++ {
		f := randomFilter(rng, maxSeq)
		if trial == 0 {
			f = obstore.Filter{}
		}
		// Filter times in randomFilter hang off csNow; shift them to the
		// world's clock.
		if !f.From.IsZero() {
			f.From = f.From.Add(w.now.Sub(csNow))
		}
		if !f.To.IsZero() {
			f.To = f.To.Add(w.now.Sub(csNow))
		}
		want := normTimes(w.twin.Query(f))
		if got := normTimes(w.src.Query(f)); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			w.t.Fatalf("%s: filter %+v: Query returned %d rows, the twin %d", step, f, len(got), len(want))
		}
		if got := scanAll(w.src, f); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			w.t.Fatalf("%s: filter %+v: Scan visited %d rows, the twin has %d", step, f, len(got), len(want))
		}
		fc := f
		fc.Limit = 0
		if got, want := w.src.Count(fc), w.twin.Count(fc); got != want {
			w.t.Fatalf("%s: filter %+v: Count = %d, the twin says %d", step, fc, got, want)
		}
		// Page through the same filter on a cursor, as stream resume and
		// the HTTP API do: the pages concatenate to the unpaged answer.
		if trial%4 == 0 {
			fp := fc
			fp.Limit = 1 + rng.Intn(40)
			all := normTimes(w.twin.Query(fc))
			var paged []sensor.Observation
			for {
				page := w.src.Query(fp)
				paged = append(paged, page...)
				if len(page) < fp.Limit {
					break
				}
				fp.AfterSeq = page[len(page)-1].Seq
			}
			if len(paged)+len(all) > 0 && !reflect.DeepEqual(normTimes(paged), all) {
				w.t.Fatalf("%s: filter %+v: %d rows over pages of %d, the twin has %d", step, fc, len(paged), fp.Limit, len(all))
			}
		}
	}
}

func TestEvictionIsInvisible(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := &evictionWorld{t: t, dir: t.TempDir(), now: csNow}
			w.mirrored = mirrored{t: t, twin: obstore.New()}
			w.twin.SetClock(func() time.Time { return w.now })
			retainOn(w.twin, evictionRetention...)
			w.open()
			defer func() { w.src.Close() }()

			steps := 120
			if testing.Short() {
				steps = 60
			}
			evictedBefore := uint64(0)
			for i := 0; i < steps; i++ {
				var step string
				switch op := rng.Intn(20); {
				case op < 8:
					step = "append"
					w.ingest(rng, 1+rng.Intn(40))
				case op < 12:
					step = "compact"
					w.now = w.now.Add(time.Duration(rng.Intn(150)) * time.Second)
					w.compact()
				case op < 14:
					step = "sweep"
					w.sweep(w.now)
					w.unlogged = true
				case op < 16:
					step = "delete-user"
					w.deleteUser(fmt.Sprintf("u%d", rng.Intn(5)))
					w.unlogged = true
				case op < 18:
					step = "checkpoint"
					w.checkpoint()
				default:
					step = "restart"
					evictedBefore += w.src.Evicted()
					w.restart()
				}
				w.check(rng, fmt.Sprintf("step %d (%s)", i, step))
			}
			if evictedBefore+w.src.Evicted() == 0 {
				t.Fatal("no row was ever evicted: the run exercised nothing")
			}
			st := w.cs.Stats()
			t.Logf("%d rows ingested, %d evicted, %d live (%d cold in %d segments, %d hot), %d compactions since the last restart",
				w.twin.LastSeq(), evictedBefore+w.src.Evicted(), w.twin.Len(), st.ColdRows, st.Segments, st.HotRows, st.Compactions)
		})
	}
}

// evictionCrashRow is the i-th row both sides of the crash test agree
// on; minute is the child's clock in minutes past csNow.
func evictionCrashRow(i, minute int) sensor.Observation {
	at := csNow.Add(time.Duration(minute)*time.Minute - time.Duration(10+i%100)*time.Second)
	o := obsAt(fmt.Sprintf("ap-%d", i%4), fmt.Sprintf("s%d", i%3), fmt.Sprintf("u%d", i%5), sensor.ObsWiFiConnect, at, float64(i))
	if i%7 == 0 {
		o.Payload = map[string]string{"n": strconv.Itoa(i)}
	}
	return o
}

const evictionCrashBatch = 40

// TestCrashBetweenCommitAndEviction SIGKILLs a child right after a
// compaction's manifest commit, before the row store has evicted what
// the manifest now covers and before any checkpoint: the sealed rows
// are on disk twice (segments, and the WAL or an older checkpoint).
// Recovery must serve each exactly once.
func TestCrashBetweenCommitAndEviction(t *testing.T) {
	if os.Getenv("COL_EVICT_HELPER") != "" {
		t.Skip("helper mode is driven by the parent test")
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGKILL semantics")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestEvictionCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "COL_EVICT_HELPER=1", "COL_EVICT_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	rounds := -1
	deadline := time.After(30 * time.Second)
wait:
	for {
		select {
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("child never reached the kill point")
		case line, ok := <-lines:
			if !ok {
				t.Fatal("child exited before being killed")
			}
			if n, found := strings.CutPrefix(line, "committed "); found {
				if rounds, err = strconv.Atoi(n); err != nil {
					t.Fatal(err)
				}
				break wait
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	go func() {
		for range lines {
		}
	}()

	// The twin: every row the child had appended when it was killed.
	// CompactOnce syncs the WAL before it seals, so all of them were
	// durable at the commit.
	twin := obstore.New()
	for r := 0; r <= rounds; r++ {
		for j := 0; j < evictionCrashBatch; j++ {
			if _, err := twin.Append(evictionCrashRow(r*evictionCrashBatch+j, r)); err != nil {
				t.Fatal(err)
			}
		}
	}

	src, err := obstore.OpenDurable(obstore.DurableConfig{Dir: filepath.Join(dir, "store")})
	if err != nil {
		t.Fatalf("row store recovery: %v", err)
	}
	defer src.Close()
	recovered := src.Resident()
	clock := csNow.Add(time.Duration(rounds) * time.Minute)
	cs, err := Open(Config{Dir: filepath.Join(dir, "col"), BucketDur: time.Minute, Clock: func() time.Time { return clock }})
	if err != nil {
		t.Fatalf("columnar recovery: %v", err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	if cs.Watermark() == 0 {
		t.Fatal("the commit the child announced is not in the manifest")
	}
	if src.Evicted() == 0 {
		t.Fatalf("recovery re-installed %d rows and the attach evicted none, with the watermark at %d", recovered, cs.Watermark())
	}

	verify := func(stage string) {
		t.Helper()
		want := normTimes(twin.Query(obstore.Filter{}))
		got := normTimes(src.Query(obstore.Filter{}))
		seen := map[uint64]bool{}
		for _, o := range got {
			if seen[o.Seq] {
				t.Fatalf("%s: seq %d served twice", stage, o.Seq)
			}
			seen[o.Seq] = true
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d rows recovered, %d were appended", stage, len(got), len(want))
		}
		if got, want := src.Len(), twin.Len(); got != want {
			t.Fatalf("%s: Len = %d, want %d", stage, got, want)
		}
	}
	verify("after recovery")
	// The node keeps working: the next pass seals the rest, a checkpoint
	// now holds the hot window only, and a clean restart agrees.
	clock = clock.Add(5 * time.Minute)
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	verify("after the next compaction")
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if src, err = obstore.OpenDurable(obstore.DurableConfig{Dir: filepath.Join(dir, "store")}); err != nil {
		t.Fatal(err)
	}
	if n := src.Resident(); n != 0 {
		t.Fatalf("the checkpoint re-installed %d rows; every one had been sealed", n)
	}
	if cs, err = Open(Config{Dir: filepath.Join(dir, "col"), BucketDur: time.Minute, Clock: func() time.Time { return clock }}); err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	verify("after a clean restart")
}

// TestEvictionCrashHelper is the child: ingest a batch a minute,
// checkpoint now and then, compact, and — once a few passes have left
// segments and a checkpoint behind — announce the commit from inside
// CompactOnce and wait there for the SIGKILL.
func TestEvictionCrashHelper(t *testing.T) {
	if os.Getenv("COL_EVICT_HELPER") == "" {
		t.Skip("crash-harness child; run via TestCrashBetweenCommitAndEviction")
	}
	dir := os.Getenv("COL_EVICT_DIR")
	src, err := obstore.OpenDurable(obstore.DurableConfig{Dir: filepath.Join(dir, "store")})
	if err != nil {
		t.Fatal(err)
	}
	clock := csNow
	cs, err := Open(Config{Dir: filepath.Join(dir, "col"), BucketDur: time.Minute, Clock: func() time.Time { return clock }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	round := 0
	testHookAfterCommit = func() {
		if round >= 4 {
			fmt.Printf("committed %d\n", round)
			os.Stdout.Sync()
			time.Sleep(30 * time.Second) // hold the window open for the SIGKILL
		}
	}
	defer func() { testHookAfterCommit = nil }()
	for ; ; round++ {
		clock = csNow.Add(time.Duration(round) * time.Minute)
		for j := 0; j < evictionCrashBatch; j++ {
			if _, err := src.Append(evictionCrashRow(round*evictionCrashBatch+j, round)); err != nil {
				t.Fatal(err)
			}
		}
		if round == 2 {
			if err := src.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cs.CompactOnce(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAttachStoreRefusesMemoryTierOverDurableStore: a tier with no
// directory cannot hold a durable store's sealed rows — the store's
// checkpoint stops writing what the tier takes over, so a restart would
// lose them — so attaching one fails and leaves the store as it was.
func TestAttachStoreRefusesMemoryTierOverDurableStore(t *testing.T) {
	src, err := obstore.OpenDurable(obstore.DurableConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	const n = 90
	for i := 0; i < n; i++ {
		at := csNow.Add(-time.Duration(2+i%7) * time.Minute)
		if _, err := src.Append(obsAt("ap-1", "s1", fmt.Sprintf("u%d", i%4), sensor.ObsWiFiConnect, at, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := Open(Config{BucketDur: time.Minute, Clock: func() time.Time { return csNow }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err == nil {
		t.Fatal("a memory-only tier attached to a durable store")
	}
	if sealed, err := cs.CompactOnce(); err != nil || sealed != 0 {
		t.Fatalf("the refused tier sealed %d rows (%v)", sealed, err)
	}
	if src.Evicted() != 0 || src.Resident() != n || src.Len() != n {
		t.Fatalf("after the refusal: %d evicted, %d resident, %d live; want 0, %d, %d", src.Evicted(), src.Resident(), src.Len(), n, n)
	}
}

// TestOpenTakesLagFromNewestBucket: segments are ordered by seq, and a
// late-arriving row puts an older bucket last. The segment-lag gauge
// must read from the newest bucket after a reopen, as it does live.
func TestOpenTakesLagFromNewestBucket(t *testing.T) {
	dir := t.TempDir()
	src, cs := newPair(t, dir)
	for _, age := range []time.Duration{3 * time.Minute, 9 * time.Minute} { // newer bucket first
		if _, err := src.Append(obsAt("ap-1", "s1", "u1", sensor.ObsWiFiConnect, csNow.Add(-age), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	if segs := cs.Segments(); len(segs) != 2 {
		t.Fatalf("want two segments, have %d", len(segs))
	}
	live := cs.Stats().SegmentLagSec
	if want := (2 * time.Minute).Seconds(); live != want {
		t.Fatalf("live lag = %vs, want %vs (the bucket that closed two minutes ago)", live, want)
	}
	reopened, err := Open(Config{Dir: dir, BucketDur: time.Minute, Clock: func() time.Time { return csNow }})
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Stats().SegmentLagSec; got != live {
		t.Fatalf("lag after reopen = %vs, live it was %vs", got, live)
	}
}

// TestEvictionRacingReaders reads the store while a compactor seals
// and evicts underneath: a read takes its split point from the tier and
// then visits the hot log, and a commit plus eviction in between must
// not open a gap (rows gone from the log, not yet in the reader's
// segment snapshot) or a double. Every row appended before a read
// began is in its answer, once, in seq order.
func TestEvictionRacingReaders(t *testing.T) {
	var clock atomic.Int64
	clock.Store(csNow.UnixNano())
	src := obstore.New()
	cs, err := Open(Config{BucketDur: time.Minute, Clock: func() time.Time { return time.Unix(0, clock.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}

	const total = 6000
	var appended atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: one row per simulated second, every one the same subject's
		defer wg.Done()
		for i := 0; i < total; i++ {
			// An append is fast enough to outrun the compactor's first
			// pass: half way, wait for an eviction, so the readers below
			// race eviction however the goroutines are scheduled.
			for i == total/2 && src.Evicted() == 0 && !t.Failed() {
				runtime.Gosched()
			}
			now := csNow.Add(time.Duration(i) * time.Second)
			clock.Store(now.UnixNano())
			if _, err := src.Append(obsAt(fmt.Sprintf("ap-%d", i%7), "s1", "stable", sensor.ObsWiFiConnect, now.Add(-90*time.Second), float64(i))); err != nil {
				t.Error(err)
				return
			}
			appended.Store(int64(i + 1))
		}
	}()
	go func() { // compactor: seal and evict as fast as buckets close
		defer wg.Done()
		for appended.Load() < total {
			if _, err := cs.CompactOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for appended.Load() < total {
		before := int(appended.Load())
		rows := src.Query(obstore.Filter{UserID: "stable"})
		for i, o := range rows {
			if o.Seq != uint64(i+1) {
				t.Fatalf("row %d of the answer has seq %d: a gap or a double across the split (%d rows, %d appended before the read)", i, o.Seq, len(rows), before)
			}
		}
		if len(rows) < before {
			t.Fatalf("Query returned %d rows, %d had been appended before it began", len(rows), before)
		}
		if n := src.Count(obstore.Filter{Kind: sensor.ObsWiFiConnect}); n < before {
			t.Fatalf("Count = %d, %d rows had been appended before it began", n, before)
		}
		if n := src.Len(); n < before || n > total {
			t.Fatalf("Len = %d with %d rows appended before it began", n, before)
		}
	}
	wg.Wait()
	if src.Evicted() == 0 {
		t.Fatal("nothing was evicted while the readers ran")
	}
	if got := src.Len(); got != total {
		t.Fatalf("Len = %d at rest, want %d", got, total)
	}
}

// TestDeleteBetweenCommitAndEviction: between a compaction's commit and
// the eviction that follows it, the hot log still holds rows the
// watermark has already handed to the segments. Visibility goes by the
// watermark: an erasure landing in that window counts each such row
// once — the tier reports it, the resident copy just goes — a sweep
// drops resident copies, and no reader sees a row twice. (Len is not
// compared: compaction left the expired rows unsealed, and the twin
// stores them until its sweep.)
func TestDeleteBetweenCommitAndEviction(t *testing.T) {
	m, cs := newMirroredPair(t, "")
	m.retain(obstore.RetentionRule{Kind: sensor.ObsPowerReading, TTL: isodur.MustParse("PT5M")})
	for i := 0; i < 240; i++ {
		kind := sensor.ObsWiFiConnect
		if i%4 == 0 {
			kind = sensor.ObsPowerReading
		}
		m.append(obsAt(fmt.Sprintf("ap-%d", i%3), "s1", fmt.Sprintf("u%d", i%4), kind, csNow.Add(-time.Duration(2+i%9)*time.Minute), float64(i)))
	}
	agree := func(stage string) {
		t.Helper()
		for _, f := range []obstore.Filter{{}, {UserID: "u2"}, {Kind: sensor.ObsPowerReading}, {AfterSeq: 100, Limit: 50}} {
			if got, want := normTimes(m.src.Query(f)), normTimes(m.twin.Query(f)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: filter %+v: %d rows, the twin has %d", stage, f, len(got), len(want))
			}
		}
		if got, want := m.src.Users(), m.twin.Users(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Users = %v, the twin lists %v", stage, got, want)
		}
	}
	ran := false
	testHookAfterCommit = func() {
		ran = true
		if m.src.Resident() != 240 || cs.Watermark() != 240 {
			t.Fatalf("precondition: %d rows resident with the watermark at %d", m.src.Resident(), cs.Watermark())
		}
		agree("committed, not yet evicted")
		if n := m.deleteUser("u1"); n != 60 {
			t.Fatalf("DeleteUser removed %d rows, want 60", n)
		}
		agree("erased in the window")
		if n := m.sweep(csNow); n == 0 {
			t.Fatal("Sweep removed nothing")
		}
		agree("swept in the window")
	}
	defer func() { testHookAfterCommit = nil }()
	if _, err := cs.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	testHookAfterCommit = nil
	if !ran {
		t.Fatal("the hook never ran")
	}
	if n := m.src.Resident(); n != 0 {
		t.Fatalf("%d rows resident after the eviction", n)
	}
	agree("evicted")
	if _, err := cs.CompactOnce(); err != nil { // rewrites the tombstoned segments
		t.Fatal(err)
	}
	agree("rewritten")
}
