package wal

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/telemetry"
)

// testOpts returns options tuned for tests: tiny segments, manual
// syncs (interval long enough to never fire on its own).
func testOpts(dir string) Options {
	return Options{
		Dir:          dir,
		SegmentBytes: 1 << 10,
		SyncInterval: time.Hour,
	}
}

func payloadFor(seq uint64) []byte {
	return []byte(fmt.Sprintf("observation-%06d", seq))
}

func appendN(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	for seq := from; seq <= to; seq++ {
		if err := l.Append(seq, payloadFor(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
}

// collect replays everything after from into a seq->payload map,
// asserting order.
func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	out := make(map[uint64]string)
	last := from
	if err := l.Replay(from, func(seq uint64, payload []byte) error {
		if seq <= last {
			t.Fatalf("replay out of order: %d after %d", seq, last)
		}
		last = seq
		out[seq] = string(payload)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 200)
	got := collect(t, l, 0)
	if len(got) != 200 {
		t.Fatalf("replayed %d records, want 200", len(got))
	}
	for seq := uint64(1); seq <= 200; seq++ {
		if got[seq] != string(payloadFor(seq)) {
			t.Fatalf("seq %d payload %q", seq, got[seq])
		}
	}
	// Replay from a midpoint honors the high-water mark.
	if got := collect(t, l, 150); len(got) != 50 {
		t.Fatalf("replay from 150 returned %d records, want 50", len(got))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything survives, appends continue.
	l2, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastSeq() != 200 {
		t.Fatalf("recovered LastSeq = %d, want 200", l2.LastSeq())
	}
	if rep := l2.Recovery(); rep.Records != 200 || rep.DroppedBytes != 0 {
		t.Fatalf("recovery = %+v, want 200 clean records", rep)
	}
	appendN(t, l2, 201, 210)
	if got := collect(t, l2, 0); len(got) != 210 {
		t.Fatalf("after reopen+append: %d records, want 210", len(got))
	}
}

func TestAppendRejectsNonMonotonicSeq(t *testing.T) {
	l, err := Open(testOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 3)
	if err := l.Append(3, []byte("dup")); err == nil {
		t.Error("duplicate seq accepted")
	}
	if err := l.Append(2, []byte("regress")); err == nil {
		t.Error("regressing seq accepted")
	}
}

func TestRotationSealsSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 500) // ~18 KiB over 1 KiB segments
	segs := l.SealedSegments()
	if len(segs) < 5 {
		t.Fatalf("only %d sealed segments", len(segs))
	}
	// Contiguous, ascending coverage.
	for i := 1; i < len(segs); i++ {
		if segs[i].Base != segs[i-1].Last+1 {
			t.Fatalf("segment gap: %d..%d then %d", segs[i-1].Base, segs[i-1].Last, segs[i].Base)
		}
	}
	if got := collect(t, l, 0); len(got) != 500 {
		t.Fatalf("replayed %d, want 500", len(got))
	}
}

func TestDeleteSealedAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 500)
	segs := l.SealedSegments()
	hwm := segs[len(segs)/2].Last
	n, err := l.TruncateBefore(hwm)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("TruncateBefore deleted nothing")
	}
	for _, s := range l.SealedSegments() {
		if s.Last <= hwm {
			t.Fatalf("segment %d..%d survived TruncateBefore(%d)", s.Base, s.Last, hwm)
		}
	}
	// Replay from the hwm still yields every record after it.
	got := collect(t, l, hwm)
	for seq := hwm + 1; seq <= 500; seq++ {
		if _, ok := got[seq]; !ok {
			t.Fatalf("seq %d missing after truncation", seq)
		}
	}
	// Deleting the same base twice fails cleanly.
	remaining := l.SealedSegments()
	if err := l.deleteSealed(remaining[0].Base); err != nil {
		t.Fatal(err)
	}
	if err := l.deleteSealed(remaining[0].Base); err == nil {
		t.Error("double delete accepted")
	}
}

func TestConcurrentAppendSingleWriterPerSeq(t *testing.T) {
	// The log demands monotonic seqs, so concurrent users coordinate
	// seq assignment (obstore does it under its own lock). Simulate
	// that: a shared counter handing out seqs under a mutex.
	l, err := Open(Options{Dir: t.TempDir(), SyncInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		mu   sync.Mutex
		next uint64
		wg   sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				mu.Lock()
				next++
				seq := next
				err := l.Append(seq, payloadFor(seq))
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l, 0); len(got) != 2000 {
		t.Fatalf("replayed %d, want 2000", len(got))
	}
}

func TestSyncModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(dir string) Options
	}{
		{"always", func(d string) Options { return Options{Dir: d, SyncEveryAppend: true} }},
		{"none", func(d string) Options { return Options{Dir: d, NoSync: true} }},
		{"interval", func(d string) Options { return Options{Dir: d, SyncInterval: time.Millisecond} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(tc.opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 1, 50)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(tc.opts(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := collect(t, l2, 0); len(got) != 50 {
				t.Fatalf("replayed %d, want 50", len(got))
			}
		})
	}
}

func TestClosedLogRejectsOperations(t *testing.T) {
	l, err := Open(testOpts(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := l.Append(4, []byte("x")); err != ErrClosed {
		t.Errorf("append after close: %v", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Errorf("sync after close: %v", err)
	}
}

func TestMetricsRegistered(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 1, 10)
	reg := telemetry.NewRegistry()
	l.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{
		"tippers_wal_appends_total 10",
		"tippers_wal_fsyncs_total 10",
		"tippers_wal_segments_deleted_total 0",
		"tippers_wal_batch_records_count 10",
		"tippers_wal_segments 1",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("metrics output missing %q", w)
		}
	}
}

func TestEmptySegmentRemovedOnOpen(t *testing.T) {
	dir := t.TempDir()
	// A crash can leave a created-but-empty segment file behind.
	empty := filepath.Join(dir, fmt.Sprintf("%s%020d%s", segPrefix, 7, segSuffix))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(testOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(empty); !os.IsNotExist(err) {
		t.Error("empty segment not removed")
	}
	appendN(t, l, 1, 5)
	if got := collect(t, l, 0); len(got) != 5 {
		t.Fatalf("replayed %d, want 5", len(got))
	}
}

// TestWriteFrameAllocs: framing a record that fits the writer's buffer
// allocates nothing, and frames whose header meets a nearly full buffer
// still scan back intact.
func TestWriteFrameAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 100)
	w := bufio.NewWriterSize(io.Discard, 4096)
	seq := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		if _, err := WriteFrame(w, seq, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteFrame allocates %.1f times per record", n)
	}

	// A 64-byte buffer puts a header across almost every flush boundary.
	var file bytes.Buffer
	w = bufio.NewWriterSize(&file, 64)
	for seq := uint64(1); seq <= 50; seq++ {
		if _, err := WriteFrame(w, seq, payload[:seq%40]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := uint64(1)
	if _, err := ScanFrames(&file, func(seq uint64, p []byte) error {
		if seq != want || !bytes.Equal(p, payload[:seq%40]) {
			return fmt.Errorf("frame %d: seq %d, %d payload bytes", want, seq, len(p))
		}
		want++
		return nil
	}); err != nil || want != 51 {
		t.Fatalf("scanned %d frames: %v", want-1, err)
	}
}
