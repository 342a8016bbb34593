package colstore

// Crash-injection for the WAL ↔ segment manifest handoff, extending
// the WAL suite's SIGKILL harness (internal/wal/recovery_test.go) to
// the columnar tier: a child process ingests into a durable row store
// and compacts continuously; the parent SIGKILLs it — either parked
// deterministically in the widest window (segment files written,
// manifest not yet committed) or at a random instant — then recovers
// both stores and asserts the unified view is exactly the child's
// deterministic stream up to where its log was cut: no bucket
// double-counted, none lost.

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

func TestCrashMidCompaction(t *testing.T) {
	if os.Getenv("COL_CRASH_HELPER") != "" {
		t.Skip("helper mode is driven by the parent test")
	}
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGKILL semantics")
	}
	for _, mode := range []string{"mid", "random"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestColstoreCrashHelper$", "-test.v")
			cmd.Env = append(os.Environ(),
				"COL_CRASH_HELPER=1", "COL_CRASH_DIR="+dir, "COL_CRASH_MODE="+mode)
			stdout, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}

			lines := make(chan string, 64)
			sc := bufio.NewScanner(stdout)
			go func() {
				for sc.Scan() {
					lines <- sc.Text()
				}
				close(lines)
			}()

			// In "mid" mode the child parks inside the compaction's
			// durable window and announces it; kill it right there. In
			// "random" mode wait for a few full compactions, then kill
			// after a random extra delay.
			compactions := 0
			var lastWM uint64 // the highest watermark the child printed
			watermark := func(line string) {
				var n int
				var wm uint64
				if _, err := fmt.Sscanf(line, "compacted %d wm=%d", &n, &wm); err == nil {
					lastWM = max(lastWM, wm)
				}
			}
			deadline := time.After(30 * time.Second)
		scan:
			for {
				select {
				case <-deadline:
					cmd.Process.Kill()
					t.Fatal("child never reached the kill point")
				case line, ok := <-lines:
					if !ok {
						t.Fatal("child exited before being killed")
					}
					switch {
					case mode == "mid" && strings.HasPrefix(line, "midcompact"):
						break scan
					case strings.HasPrefix(line, "compacted"):
						watermark(line)
						compactions++
						if mode == "random" && compactions >= 3 {
							time.Sleep(time.Duration(rand.Intn(40)) * time.Millisecond)
							break scan
						}
					}
				}
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			// A commit the child printed before it died is durable too.
			for line := range lines {
				watermark(line)
			}
			cmd.Wait()

			// Recover both stores. The manifest must never be torn, and
			// the unified segments+tail view must be the child's stream
			// exactly: seqs 1..N, row i the i-th observation the child
			// appended, N at least the last watermark it printed. A lost
			// bucket would leave a seq gap, a double-counted one a
			// duplicate. Every commit checkpoints the row store, so its
			// log alone holds only the hot tail: the stream, not a
			// replay, is the reference.
			src, err := obstore.OpenDurable(obstore.DurableConfig{Dir: filepath.Join(dir, "store")})
			if err != nil {
				t.Fatalf("row store recovery: %v", err)
			}
			cs, err := Open(Config{Dir: filepath.Join(dir, "col"), BucketDur: 50 * time.Millisecond})
			if err != nil {
				t.Fatalf("columnar recovery: %v", err)
			}
			if err := cs.AttachStore(src); err != nil {
				t.Fatal(err)
			}

			agree := func(stage string) int {
				t.Helper()
				got := normTimes(cs.Query(obstore.Filter{}))
				if uint64(len(got)) < lastWM {
					t.Fatalf("%s: %d rows recovered, below the watermark %d the child committed", stage, len(got), lastWM)
				}
				for k, o := range got {
					i := k + 1
					if o.Seq != uint64(i) {
						t.Fatalf("%s: row %d has seq %d (a lost or double-counted bucket)", stage, i, o.Seq)
					}
					if want := crashObs(i); o.Value != want.Value || o.SensorID != want.SensorID ||
						o.SpaceID != want.SpaceID || o.UserID != want.UserID || o.Kind != want.Kind {
						t.Fatalf("%s: seq %d holds %+v, the child appended %+v", stage, i, o, want)
					}
				}
				if rows := normTimes(src.Query(obstore.Filter{})); !reflect.DeepEqual(rows, got) || src.Len() != len(got) {
					t.Fatalf("%s: the row store answers %d rows (Len %d), the tier's view %d", stage, len(rows), src.Len(), len(got))
				}
				return len(got)
			}
			recovered := agree("after crash recovery")
			if wm := cs.Watermark(); wm > 0 {
				for _, info := range cs.Segments() {
					if info.MaxSeq > wm {
						t.Fatalf("segment %d reaches seq %d past watermark %d", info.ID, info.MaxSeq, wm)
					}
				}
			}

			// The tier keeps working: another compaction pass and the
			// views still agree.
			if _, err := cs.CompactOnce(); err != nil {
				t.Fatalf("post-recovery compaction: %v", err)
			}
			if n := agree("post-recovery compaction"); n != recovered {
				t.Fatalf("post-recovery compaction: %d rows, %d before it", n, recovered)
			}
			t.Logf("mode=%s: recovered %d rows, child's last watermark %d, watermark=%d, %d segments",
				mode, recovered, lastWM, cs.Watermark(), len(cs.Segments()))
		})
	}
}

// TestColstoreCrashHelper is the child side: ingest and compact until
// killed. With COL_CRASH_MODE=mid it parks in testHookMidCompact —
// after segment files are durable, before the manifest commit — and
// waits there for the parent's SIGKILL.
func TestColstoreCrashHelper(t *testing.T) {
	if os.Getenv("COL_CRASH_HELPER") == "" {
		t.Skip("crash-harness child; run via TestCrashMidCompaction")
	}
	dir := os.Getenv("COL_CRASH_DIR")
	mode := os.Getenv("COL_CRASH_MODE")
	src, err := obstore.OpenDurable(obstore.DurableConfig{Dir: filepath.Join(dir, "store")})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := Open(Config{Dir: filepath.Join(dir, "col"), BucketDur: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.AttachStore(src); err != nil {
		t.Fatal(err)
	}
	// In "mid" mode, arm the hook only after a few clean compactions
	// so the kill lands on a tier that already has live segments to
	// preserve; then park inside the durable window until SIGKILLed.
	var armed atomic.Bool
	if mode == "mid" {
		testHookMidCompact = func() {
			if armed.Load() {
				fmt.Println("midcompact")
				os.Stdout.Sync()
				time.Sleep(30 * time.Second) // hold the window open for the SIGKILL
			}
		}
		defer func() { testHookMidCompact = nil }()
	}

	i := 0
	rounds := 0
	for {
		for j := 0; j < 50; j++ {
			i++
			if _, err := src.Append(crashObs(i)); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(60 * time.Millisecond) // let buckets close
		n, err := cs.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("compacted %d wm=%d\n", n, cs.Watermark())
		os.Stdout.Sync()
		rounds++
		if rounds >= 3 {
			armed.Store(true)
		}
	}
}

// crashObs is the i-th observation the crash helper appends, stamped
// with the wall clock so buckets close as it runs; it lands at seq i.
func crashObs(i int) sensor.Observation {
	return sensor.Observation{
		SensorID: fmt.Sprintf("ap-%d", i%4),
		Kind:     sensor.ObsWiFiConnect,
		Time:     time.Now(),
		SpaceID:  fmt.Sprintf("s%d", i%3),
		UserID:   fmt.Sprintf("u%d", i%5),
		Value:    float64(i),
	}
}
