package colstore

import (
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// TestConcurrentCheckpointsKeepEverySyncedRow: Checkpoint has callers
// that run at once — every commit of the tier, shutdown, an operator —
// and a checkpoint cut at a lower high-water mark must never replace
// one that has already truncated the WAL past it, or the rows between
// the two are lost. Two goroutines checkpoint in a loop while two
// append and one compacts; after both directories are reopened, every
// row appended and synced is there exactly once.
func TestConcurrentCheckpointsKeepEverySyncedRow(t *testing.T) {
	const writers, rows = 2, 1500
	dir := t.TempDir()
	open := func() (*obstore.Store, *Store) {
		t.Helper()
		src, err := obstore.OpenDurable(obstore.DurableConfig{
			Dir: filepath.Join(dir, "store"), SegmentBytes: 4 << 10,
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := Open(Config{Dir: filepath.Join(dir, "col"), BucketDur: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.AttachStore(src); err != nil {
			t.Fatal(err)
		}
		return src, cs
	}

	src, cs := open()
	errs := make(chan error, writers+3)
	var appenders, background sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for i := 0; i < rows; i++ {
				o := obsAt(fmt.Sprintf("ap-%d", w), "s1", fmt.Sprintf("u%d", i%5), sensor.ObsWiFiConnect,
					time.Now(), float64(w*rows+i))
				if _, err := src.Append(o); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	loop := func(step func() error) {
		background.Add(1)
		go func() {
			defer background.Done()
			for !stop.Load() {
				if err := step(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for c := 0; c < 2; c++ {
		loop(src.Checkpoint)
	}
	loop(func() error {
		_, err := cs.CompactOnce()
		time.Sleep(time.Millisecond)
		return err
	})
	appenders.Wait()
	stop.Store(true)
	background.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := src.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}

	src, cs = open()
	defer src.Close()
	seen := make(map[float64]int, writers*rows)
	for _, o := range cs.Query(obstore.Filter{}) {
		seen[o.Value]++
	}
	for v := 0; v < writers*rows; v++ {
		if n := seen[float64(v)]; n != 1 {
			t.Fatalf("row %d recovered %d times, want once (%d rows recovered, %d distinct)",
				v, n, len(cs.Query(obstore.Filter{})), len(seen))
		}
	}
	if len(seen) != writers*rows {
		t.Fatalf("%d distinct rows recovered, %d were appended", len(seen), writers*rows)
	}
}
