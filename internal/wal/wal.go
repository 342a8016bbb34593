// Package wal implements the durable observation log under the
// store: a segmented, append-only write-ahead log with CRC-checked
// binary framing, group commit, and crash recovery.
//
// The paper's TIPPERS "captures sensor data and stores it" (Figure 1
// step 3); the in-memory store alone loses every observation since
// the last checkpoint on a crash — including the evidence that
// retention obligations (Figure 2's "P6M") were ever enforced. The
// WAL closes that gap: every record is framed, checksummed, and
// appended to a segment file before the store indexes it, so a
// restarted node replays its way back to the exact committed state.
//
// Durability is batched, not per-record: appends land in a buffered
// writer and a group-commit policy decides when the file is fsynced
// (every append, on a byte threshold, or on a background interval).
// This keeps ingest throughput within a small factor of the pure
// in-memory path while bounding the loss window to one commit
// interval.
//
// Records are opaque payloads keyed by a caller-assigned sequence
// number. Framing (little-endian):
//
//	[4B length of seq+payload][4B CRC32-C of seq+payload][8B seq][payload]
//
// WriteFrame and ScanFrames are that framing on its own, so a file
// that is not a segment (the store's checkpoint) is the same bytes.
//
// Segments are named wal-<firstSeq>.seg and rotate by size. Recovery
// scans every segment, truncates at the first bad frame (a torn tail
// from a mid-batch crash, or a flipped bit), and reports what was
// dropped. Whole sealed segments can be deleted once every record in
// them is checkpointed or past retention — the privacy-relevant
// half of retention enforcement: expired observations must leave
// disk, not just memory.
package wal

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tippers/tippers/internal/telemetry"
)

const (
	headerSize = 8 // 4B length + 4B CRC
	seqSize    = 8 // sequence number inside the framed region
	segPrefix  = "wal-"
	segSuffix  = ".seg"

	// DefaultSegmentBytes rotates segments at 8 MiB.
	DefaultSegmentBytes = 8 << 20
	// DefaultSyncInterval is the group-commit interval.
	DefaultSyncInterval = 10 * time.Millisecond
	// DefaultSyncBytes forces a commit once this much is pending.
	DefaultSyncBytes = 1 << 20
	// MaxRecordBytes bounds one framed record; larger lengths in a
	// segment header are treated as corruption.
	MaxRecordBytes = 16 << 20
)

// castagnoli is the CRC32-C table (the checksum used by iSCSI, ext4,
// and most storage systems; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures Open.
type Options struct {
	// Dir is the segment directory; created if absent. Required.
	Dir string
	// SegmentBytes rotates the active segment once it reaches this
	// size; 0 selects DefaultSegmentBytes.
	SegmentBytes int64
	// SyncEveryAppend fsyncs after every Append (safest, slowest).
	SyncEveryAppend bool
	// NoSync never fsyncs on the commit path (the OS decides when
	// data reaches disk; rotation and Close still sync). Fastest,
	// loses up to the OS writeback window on power failure.
	NoSync bool
	// SyncInterval is the group-commit interval when neither
	// SyncEveryAppend nor NoSync is set; 0 selects
	// DefaultSyncInterval.
	SyncInterval time.Duration
	// SyncBytes commits early once this many bytes are pending;
	// 0 selects DefaultSyncBytes.
	SyncBytes int64
	// Logger receives recovery and retention messages; nil selects
	// slog.Default.
	Logger *slog.Logger
}

// SegmentInfo describes one sealed (immutable) segment.
type SegmentInfo struct {
	// Base is the first sequence number in the segment (also its
	// filename key).
	Base uint64
	// Last is the highest sequence number in the segment.
	Last uint64
	// Records is the number of valid records.
	Records int
	// Size is the valid byte size.
	Size int64
}

// RecoveryInfo reports what Open's scan found and repaired.
type RecoveryInfo struct {
	// Segments scanned (sealed + tail).
	Segments int
	// Records that survived the scan and are replayable.
	Records int
	// TruncatedSegments is how many segments had a bad frame and were
	// cut back to their last valid record.
	TruncatedSegments int
	// DroppedBytes is the total bytes discarded by truncation.
	DroppedBytes int64
	// DroppedRecords counts frames discarded after a CRC failure
	// (when frame lengths stayed walkable); a torn tail whose length
	// field itself is garbage counts as one.
	DroppedRecords int
}

type segment struct {
	base    uint64
	last    uint64
	records int
	size    int64
	path    string
}

// Log is a segmented append-only write-ahead log. All methods are
// safe for concurrent use.
type Log struct {
	opts Options
	log  *slog.Logger

	mu       sync.Mutex
	sealed   []*segment // ascending by base
	active   *segment   // nil until the first append after a seal
	f        *os.File
	w        *bufio.Writer
	lastSeq  uint64 // highest seq ever appended or recovered
	pending  int    // records since the last fsync
	pendingB int64  // bytes since the last fsync
	closed   bool
	recovery RecoveryInfo
	tracer   *telemetry.Tracer // nil-safe; see SetTracer

	stop chan struct{}
	done chan struct{}

	// Metrics work standalone (plain atomics); RegisterMetrics
	// exposes them on a telemetry registry.
	appends         *telemetry.Counter
	appendedBytes   *telemetry.Counter
	fsyncs          *telemetry.Counter
	fsyncSeconds    *telemetry.Histogram
	batchRecords    *telemetry.Histogram
	replayedRecords *telemetry.Counter
	droppedRecords  *telemetry.Counter
	droppedBytes    *telemetry.Counter
	segmentsCreated *telemetry.Counter
	segmentsDeleted map[string]*telemetry.Counter // by reason
}

// batchBuckets sizes the group-commit histogram: records per fsync.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// Open opens (or creates) the log in opts.Dir, scanning every segment
// for recovery: each is frame-walked, CRC-verified, and truncated at
// the first bad frame. The tail segment stays writable; appends
// continue after its last valid record.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.SyncBytes <= 0 {
		opts.SyncBytes = DefaultSyncBytes
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating dir: %w", err)
	}
	l := &Log{
		opts:            opts,
		log:             opts.Logger,
		appends:         telemetry.NewCounter(),
		appendedBytes:   telemetry.NewCounter(),
		fsyncs:          telemetry.NewCounter(),
		fsyncSeconds:    telemetry.NewHistogram(nil),
		batchRecords:    telemetry.NewHistogram(batchBuckets),
		replayedRecords: telemetry.NewCounter(),
		droppedRecords:  telemetry.NewCounter(),
		droppedBytes:    telemetry.NewCounter(),
		segmentsCreated: telemetry.NewCounter(),
		segmentsDeleted: map[string]*telemetry.Counter{
			"checkpoint": telemetry.NewCounter(),
			"retention":  telemetry.NewCounter(),
		},
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if !opts.SyncEveryAppend && !opts.NoSync {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// recover scans the directory, repairing each segment and reopening
// the newest as the active tail.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: reading dir: %w", err)
	}
	var segs []*segment
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		base, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			l.log.Warn("wal: ignoring unparseable segment name", "file", name)
			continue
		}
		segs = append(segs, &segment{base: base, path: filepath.Join(l.opts.Dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })

	l.recovery = RecoveryInfo{Segments: len(segs)}
	for _, s := range segs {
		if err := l.scanSegment(s); err != nil {
			return err
		}
		l.recovery.Records += s.records
		if s.last > l.lastSeq {
			l.lastSeq = s.last
		}
	}
	// Drop segments recovery emptied entirely: a zero-record file has
	// nothing to replay and would pin a stale base forever.
	kept := segs[:0]
	for _, s := range segs {
		if s.records == 0 {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: removing empty segment: %w", err)
			}
			l.log.Warn("wal: removed empty segment", "file", filepath.Base(s.path))
			continue
		}
		kept = append(kept, s)
	}
	segs = kept
	if len(segs) > 0 {
		tail := segs[len(segs)-1]
		if tail.size < l.opts.SegmentBytes {
			// Reopen the tail for appending.
			f, err := os.OpenFile(tail.path, os.O_WRONLY, 0o644)
			if err != nil {
				return fmt.Errorf("wal: reopening tail: %w", err)
			}
			if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
				f.Close()
				return fmt.Errorf("wal: seeking tail: %w", err)
			}
			l.active = tail
			l.f = f
			l.w = bufio.NewWriterSize(f, 64<<10)
			segs = segs[:len(segs)-1]
		}
	}
	l.sealed = segs
	if l.recovery.TruncatedSegments > 0 {
		l.log.Warn("wal: recovery truncated corrupt frames",
			"segments_truncated", l.recovery.TruncatedSegments,
			"dropped_bytes", l.recovery.DroppedBytes,
			"dropped_records", l.recovery.DroppedRecords,
			"replayable_records", l.recovery.Records)
	}
	return nil
}

// scanSegment frame-walks one segment file, verifying CRCs, filling
// in the segment's metadata, and truncating it at the first bad
// frame.
func (l *Log) scanSegment(s *segment) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: opening segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat segment: %w", err)
	}
	s.size, err = ScanFrames(f, func(seq uint64, _ []byte) error {
		if s.records == 0 && seq != s.base {
			l.log.Warn("wal: segment first seq disagrees with filename",
				"file", filepath.Base(s.path), "name_base", s.base, "first_seq", seq)
			s.base = seq
		}
		s.last = seq
		s.records++
		return nil
	})
	if err == nil {
		return nil
	}
	// Count what is being discarded: the bad frame (a torn tail whose
	// length field is itself garbage counts as one record) plus every
	// frame behind it whose length still walks.
	droppedBytes := fi.Size() - s.size
	dropped := max(1, countFrames(io.NewSectionReader(f, s.size, droppedBytes), droppedBytes))
	l.recovery.TruncatedSegments++
	l.recovery.DroppedBytes += droppedBytes
	l.recovery.DroppedRecords += dropped
	l.droppedBytes.Add(uint64(droppedBytes))
	l.droppedRecords.Add(uint64(dropped))
	l.log.Warn("wal: truncating segment at first bad frame",
		"file", filepath.Base(s.path), "valid_bytes", s.size,
		"dropped_bytes", droppedBytes, "dropped_records", dropped, "cause", err)
	if err := os.Truncate(s.path, s.size); err != nil {
		return fmt.Errorf("wal: truncating segment: %w", err)
	}
	return nil
}

// countFrames walks plausible frames from a corruption point, for the
// dropped-record count only; nothing it sees is replayed.
func countFrames(r io.Reader, remaining int64) int {
	br := bufio.NewReader(r)
	var header [headerSize]byte
	n := 0
	for remaining >= headerSize {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			break
		}
		remaining -= headerSize
		length := int64(binary.LittleEndian.Uint32(header[0:4]))
		if length < seqSize || length > MaxRecordBytes || length > remaining {
			break
		}
		if _, err := io.CopyN(io.Discard, br, length); err != nil {
			break
		}
		remaining -= length
		n++
	}
	return n
}

// Recovery reports what Open's scan found and repaired.
func (l *Log) Recovery() RecoveryInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovery
}

// LastSeq returns the highest sequence number appended or recovered.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Append frames and writes one record. The write is buffered; it
// becomes durable at the next group commit (see Options). Sequence
// numbers must be strictly increasing — the segment index and
// retention GC depend on it.
func (l *Log) Append(seq uint64, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq <= l.lastSeq {
		return fmt.Errorf("wal: non-monotonic seq %d (last %d)", seq, l.lastSeq)
	}
	if l.active != nil && l.active.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if l.active == nil {
		if err := l.openSegmentLocked(seq); err != nil {
			return err
		}
	}
	total, err := WriteFrame(l.w, seq, payload)
	if err != nil {
		return fmt.Errorf("wal: append %d: %w", seq, err)
	}
	l.active.size += total
	l.active.last = seq
	l.active.records++
	l.lastSeq = seq
	l.pending++
	l.pendingB += total
	l.appends.Inc()
	l.appendedBytes.Add(uint64(total))

	if l.opts.SyncEveryAppend || (!l.opts.NoSync && l.pendingB >= l.opts.SyncBytes) {
		return l.commitLocked(true)
	}
	if l.opts.NoSync && l.pendingB >= l.opts.SyncBytes {
		// Even without fsync, bound the buffered (in-process) window.
		return l.commitLocked(false)
	}
	return nil
}

// Sync forces a commit of everything appended so far: buffered bytes
// are flushed and (unless NoSync) fsynced.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.commitLocked(!l.opts.NoSync)
}

// commitLocked flushes the buffered writer and optionally fsyncs.
// Caller holds l.mu.
func (l *Log) commitLocked(fsync bool) error {
	if l.w == nil || l.pending == 0 {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if fsync {
		// A group commit covers many requests' appends, so its span is
		// a root of its own, not a child of any one request's trace.
		_, span := l.tracer.StartRoot(context.Background(), "wal.fsync")
		span.SetAttrInt("records", int64(l.pending))
		span.SetAttrInt("bytes", l.pendingB)
		t0 := time.Now()
		if err := l.f.Sync(); err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			return fmt.Errorf("wal: fsync: %w", err)
		}
		span.End()
		l.fsyncSeconds.ObserveSince(t0)
		l.fsyncs.Inc()
		l.batchRecords.Observe(float64(l.pending))
	}
	l.pending = 0
	l.pendingB = 0
	return nil
}

// SetTracer attaches a tracer; group-commit fsync batches are then
// recorded as "wal.fsync" root spans. Safe to call at any time; nil
// detaches.
func (l *Log) SetTracer(t *telemetry.Tracer) {
	l.mu.Lock()
	l.tracer = t
	l.mu.Unlock()
}

// Ready reports whether the log still accepts appends.
func (l *Log) Ready() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return nil
}

// syncLoop is the group-commit daemon for interval mode.
func (l *Log) syncLoop() {
	defer close(l.done)
	ticker := time.NewTicker(l.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.commitLocked(true); err != nil {
					l.log.Error("wal: group commit failed", "error", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Rotate seals the active segment so the next append starts a fresh
// one. Retention GC can then reclaim the sealed file once every
// record in it is dead.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.rotateLocked()
}

// rotateLocked commits, closes, and seals the active segment.
// Caller holds l.mu.
func (l *Log) rotateLocked() error {
	if l.active == nil {
		return nil
	}
	if err := l.commitLocked(true); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	l.sealed = append(l.sealed, l.active)
	l.active, l.f, l.w = nil, nil, nil
	return nil
}

// openSegmentLocked creates a fresh active segment whose filename is
// keyed by the first sequence number it will hold. Caller holds l.mu.
func (l *Log) openSegmentLocked(base uint64) error {
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	l.active = &segment{base: base, path: path}
	l.f = f
	l.w = bufio.NewWriterSize(f, 64<<10)
	l.segmentsCreated.Inc()
	return nil
}

// SealedSegments lists the immutable segments, ascending by base.
func (l *Log) SealedSegments() []SegmentInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SegmentInfo, 0, len(l.sealed))
	for _, s := range l.sealed {
		out = append(out, SegmentInfo{Base: s.base, Last: s.last, Records: s.records, Size: s.size})
	}
	return out
}

// DeleteSealed removes one sealed segment from disk. The reason
// ("checkpoint" or "retention") is recorded in the deletion metrics;
// retention deletions are the privacy-relevant ones — expired
// observations leaving disk.
func (l *Log) DeleteSealed(base uint64, reason string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for i, s := range l.sealed {
		if s.base != base {
			continue
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: deleting segment: %w", err)
		}
		if err := SyncDir(l.opts.Dir); err != nil {
			return fmt.Errorf("wal: dir sync: %w", err)
		}
		l.sealed = append(l.sealed[:i], l.sealed[i+1:]...)
		if c, ok := l.segmentsDeleted[reason]; ok {
			c.Inc()
		} else {
			l.segmentsDeleted["retention"].Inc()
		}
		l.log.Info("wal: segment deleted", "base", base, "records", s.records,
			"bytes", s.size, "reason", reason)
		return nil
	}
	return fmt.Errorf("wal: no sealed segment with base %d", base)
}

// TruncateBefore deletes every sealed segment whose records are all
// at or below hwm — the checkpoint truncation path: once a checkpoint
// covers a prefix of the log, replaying it is redundant. Returns how
// many segments were deleted.
func (l *Log) TruncateBefore(hwm uint64) (int, error) {
	l.mu.Lock()
	bases := make([]uint64, 0, len(l.sealed))
	for _, s := range l.sealed {
		if s.last <= hwm {
			bases = append(bases, s.base)
		}
	}
	l.mu.Unlock()
	for _, b := range bases {
		if err := l.DeleteSealed(b, "checkpoint"); err != nil {
			return 0, err
		}
	}
	return len(bases), nil
}

// Replay calls fn for every record with seq > from, in sequence
// order. Appends issued after Replay starts may or may not be seen;
// the intended use is at startup, before writes begin. The payload
// slice is reused between calls — fn must not retain it.
func (l *Log) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Commit so the tail file holds everything appended so far.
	if err := l.commitLocked(!l.opts.NoSync); err != nil {
		l.mu.Unlock()
		return err
	}
	paths := make([]string, 0, len(l.sealed)+1)
	sizes := make([]int64, 0, cap(paths))
	for _, s := range l.sealed {
		paths = append(paths, s.path)
		sizes = append(sizes, s.size)
	}
	if l.active != nil {
		paths = append(paths, l.active.path)
		sizes = append(sizes, l.active.size)
	}
	l.mu.Unlock()

	visit := func(seq uint64, payload []byte) error {
		if seq <= from {
			return nil
		}
		l.replayedRecords.Inc()
		return fn(seq, payload)
	}
	for i, path := range paths {
		if err := replayFile(path, sizes[i], visit); err != nil {
			return err
		}
	}
	return nil
}

// replayFile frame-walks one already-recovered segment file up to
// size (the valid prefix established by Open's scan); a bad frame now
// means the file changed underneath us.
func replayFile(path string, size int64, fn func(uint64, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("wal: replay open: %w", err)
	}
	defer f.Close()
	if _, err := ScanFrames(io.LimitReader(f, size), fn); err != nil {
		return fmt.Errorf("wal: replay %s: %w", filepath.Base(path), err)
	}
	return nil
}

// WriteFrame frames one record onto w — the single encoder behind
// Log.Append and every standalone frame file (the store's checkpoint)
// — and returns the framed size. This is the ingest hot path, so the
// header is laid out in the writer's own free space (AvailableBuffer),
// flushing first when less than a header is free: a local array would
// escape through Write's io.Writer and cost an allocation per record.
func WriteFrame(w *bufio.Writer, seq uint64, payload []byte) (int64, error) {
	if n := seqSize + len(payload); n > MaxRecordBytes {
		return 0, fmt.Errorf("record of %d bytes exceeds the limit a reader accepts", n)
	}
	if w.Available() < headerSize+seqSize {
		if err := w.Flush(); err != nil {
			return 0, err
		}
	}
	header := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(seqSize+len(payload)))
	header = binary.LittleEndian.AppendUint32(header, 0) // the CRC, filled in below
	header = binary.LittleEndian.AppendUint64(header, seq)
	crc := crc32.Checksum(header[8:16], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(header[4:8], crc)
	if _, err := w.Write(header); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return int64(len(header) + len(payload)), nil
}

// ScanFrames walks the frames in r in file order, verifying each
// length and CRC, and calls fn with every record; the payload slice is
// reused between calls. It returns the bytes walked and nil at a clean
// end of input exactly on a frame boundary. Any bad frame — or an
// error from fn — stops the walk and is reported with the frame's
// 0-based ordinal and byte offset, so a damaged file can be inspected
// by hand. Unlike Open's recovery scan nothing is repaired: a
// standalone frame file is written atomically, so damage is a fault,
// not a torn tail.
func ScanFrames(r io.Reader, fn func(seq uint64, payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 256<<10)
	var (
		header [headerSize]byte
		buf    []byte
		n      int
		off    int64
	)
	fail := func(err error) (int64, error) {
		return off, fmt.Errorf("frame %d at byte %d: %w", n, off, err)
	}
	for ; ; n++ {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if err == io.EOF {
				return off, nil
			}
			return fail(fmt.Errorf("short frame header: %w", err))
		}
		length := binary.LittleEndian.Uint32(header[0:4])
		want := binary.LittleEndian.Uint32(header[4:8])
		if length < seqSize || length > MaxRecordBytes {
			return fail(fmt.Errorf("implausible frame length %d", length))
		}
		if int(length) > cap(buf) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(br, buf); err != nil {
			return fail(fmt.Errorf("short frame body (want %d bytes): %w", length, err))
		}
		if crc32.Checksum(buf, castagnoli) != want {
			return fail(errors.New("CRC mismatch"))
		}
		if err := fn(binary.LittleEndian.Uint64(buf[:seqSize]), buf[seqSize:]); err != nil {
			return fail(err)
		}
		off += headerSize + int64(length)
	}
}

// Size returns the total on-disk bytes across sealed and active
// segments (valid prefixes only).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, s := range l.sealed {
		n += s.size
	}
	if l.active != nil {
		n += l.active.size
	}
	return n
}

// Close commits outstanding appends (with a final fsync, even in
// NoSync mode) and releases the tail file. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	var err error
	if l.w != nil {
		if ferr := l.w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if serr := l.f.Sync(); serr != nil && err == nil {
			err = serr
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.f, l.w = nil, nil
	}
	stop, done := l.stop, l.done
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// RegisterMetrics exposes the log's counters on a telemetry registry.
func (l *Log) RegisterMetrics(r *telemetry.Registry) {
	reg := func(name, help string, c *telemetry.Counter) {
		r.CounterFunc(name, help, func() float64 { return float64(c.Value()) })
	}
	reg("tippers_wal_appends_total", "Records appended to the WAL.", l.appends)
	reg("tippers_wal_appended_bytes_total", "Framed bytes appended to the WAL.", l.appendedBytes)
	reg("tippers_wal_fsyncs_total", "Group commits (fsync calls).", l.fsyncs)
	reg("tippers_wal_replayed_records_total", "Records replayed at startup.", l.replayedRecords)
	reg("tippers_wal_dropped_records_total", "Records dropped by recovery truncation.", l.droppedRecords)
	reg("tippers_wal_dropped_bytes_total", "Bytes dropped by recovery truncation.", l.droppedBytes)
	reg("tippers_wal_segments_created_total", "Segment files created.", l.segmentsCreated)
	for reason, c := range l.segmentsDeleted {
		cc := c
		r.CounterFuncWith("tippers_wal_segments_deleted_total",
			"Segment files deleted, by reason (retention deletions are expired data leaving disk).",
			telemetry.Labels{"reason": reason}, func() float64 { return float64(cc.Value()) })
	}
	r.RegisterHistogram("tippers_wal_fsync_seconds", "fsync latency.", nil, l.fsyncSeconds)
	r.RegisterHistogram("tippers_wal_batch_records", "Records per group commit.", nil, l.batchRecords)
	r.GaugeFunc("tippers_wal_segments", "Segment files on disk (sealed + active).", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		n := len(l.sealed)
		if l.active != nil {
			n++
		}
		return float64(n)
	})
	r.GaugeFunc("tippers_wal_size_bytes", "Valid bytes on disk across segments.", func() float64 {
		return float64(l.Size())
	})
}

// SyncDir fsyncs a directory so a file created, renamed or removed in
// it survives a crash. It is the one directory fsync of the WAL, the
// store's checkpoint and the columnar tier's manifest; each caller wraps
// the error with its own context.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
