package obstore

// This file is the store's durable mode: a write-ahead log under the
// in-memory indexes. Append frames the observation into the WAL
// *before* touching the indexes (write-ahead), so a crash can lose at
// most the records inside one group-commit window and can never
// expose a half-indexed observation. Recovery is checkpoint + replay:
// OpenDurable restores the last checkpoint and replays every WAL
// record past its high-water mark. Both are the one durable row
// format: the checkpoint is a file of WAL frames (see internal/wal) —
// a header record at seq 0, then one frame per live observation in
// ascending seq, payloads encoded by the log's appendObservation.
//
// Retention and erasure reach the disk at the next Checkpoint. It
// seals the active segment, rewrites the checkpoint from the rows the
// log holds and deletes every WAL segment the checkpoint covers, so an
// expired or erased row leaves the disk, not just memory: the paper's
// retention element ("P6M") is a promise about data at rest.
//
// With a cold tier attached (tier.go) this directory holds the hot
// window only, and every commit of the tier checkpoints (EvictThrough).
// The checkpoint is then the rows of the open bucket, which the tier's
// segments do not hold, and the WAL holds only the records appended
// since the last commit: the open bucket plus one compaction interval.
// The WAL directory and the tier's segment directory are together the
// database — neither recovers it alone. A store without a tier (tests,
// bench's shadow store) checkpoints only when its owner calls
// Checkpoint.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/wal"
)

const (
	// checkpointFile is the checkpoint inside a durable store's
	// directory; a write in progress is checkpointFile + ".tmp-*".
	checkpointFile = "checkpoint.snap"
	// checkpointVersion is the header record's format version (1 was
	// the retired JSON-lines snapshot).
	checkpointVersion = 2
)

// DurableConfig configures OpenDurable. Only Dir is required.
type DurableConfig struct {
	// Dir holds the checkpoint file and the wal/ segment directory;
	// created if absent.
	Dir string
	// SegmentBytes rotates WAL segments; 0 selects the WAL default
	// (8 MiB).
	SegmentBytes int64
	// SyncEveryAppend fsyncs per observation (safest, slowest).
	SyncEveryAppend bool
	// NoSync leaves fsync timing to the OS.
	NoSync bool
	// SyncInterval is the group-commit interval; 0 selects the WAL
	// default (10ms).
	SyncInterval time.Duration
	// SyncBytes commits early once this much is pending; 0 selects
	// the WAL default (1 MiB).
	SyncBytes int64
	// Logger receives recovery and retention messages; nil selects
	// slog.Default.
	Logger *slog.Logger
}

// OpenDurable opens (or creates) a durable store in cfg.Dir: the last
// checkpoint is restored, the WAL is recovered (torn tail truncated)
// and replayed from the checkpoint's high-water mark, and every
// subsequent Append is logged before it is indexed. The checkpoint is
// written atomically, so a damaged one means tampering or a disk
// fault, not a crash: OpenDurable refuses to open rather than serve a
// partial history.
func OpenDurable(cfg DurableConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obstore: DurableConfig.Dir is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obstore: creating durable dir: %w", err)
	}
	// A crash mid-checkpoint leaves its temp file behind, holding
	// observation bytes no later sweep, erasure or checkpoint touches.
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("obstore: reading durable dir: %w", err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), checkpointFile+".tmp-") {
			continue
		}
		if err := os.Remove(filepath.Join(cfg.Dir, e.Name())); err != nil {
			return nil, fmt.Errorf("obstore: removing stale checkpoint temp file: %w", err)
		}
		cfg.Logger.Warn("obstore: removed stale checkpoint temp file", "file", e.Name())
	}
	s := New()
	s.logger = cfg.Logger
	// Recovered rows with equal payloads share one map, as the rows of
	// one decoded segment do; the table lives for this replay only.
	s.replayed = make(payloadTable)
	defer func() { s.replayed = nil }()

	ckpt := filepath.Join(cfg.Dir, checkpointFile)
	if f, err := os.Open(ckpt); err == nil {
		st, err := f.Stat()
		if err == nil {
			err = s.readCheckpoint(io.NewSectionReader(f, 0, st.Size()))
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("obstore: restoring %s: %w", ckpt, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("obstore: opening checkpoint: %w", err)
	}
	hwm := s.nextSeq.Load()

	l, err := wal.Open(wal.Options{
		Dir:             filepath.Join(cfg.Dir, "wal"),
		SegmentBytes:    cfg.SegmentBytes,
		SyncEveryAppend: cfg.SyncEveryAppend,
		NoSync:          cfg.NoSync,
		SyncInterval:    cfg.SyncInterval,
		SyncBytes:       cfg.SyncBytes,
		Logger:          cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	replayed := 0
	if err := l.Replay(hwm, func(seq uint64, payload []byte) error {
		replayed++
		return s.insertRecovered(seq, payload)
	}); err != nil {
		l.Close()
		return nil, fmt.Errorf("obstore: replaying wal: %w", err)
	}
	// Replayed records were ingested after the checkpoint was cut.
	s.totalIngests.Add(uint64(replayed))
	if last := l.LastSeq(); last > s.nextSeq.Load() {
		s.nextSeq.Store(last)
	}
	s.wal = l
	s.walDir = cfg.Dir
	// Rows the cold tier had sealed before a crash are among these; its
	// AttachTier drops them again and logs how many.
	if n := s.Resident(); replayed > 0 || n > 0 {
		cfg.Logger.Info("obstore: durable store recovered",
			"dir", cfg.Dir, "checkpoint_records", n-replayed,
			"replayed_records", replayed, "next_seq", s.nextSeq.Load())
	}
	return s, nil
}

// WAL exposes the store's write-ahead log (nil unless the store was
// opened with OpenDurable). Operational tooling and tests use it to
// inspect segments or force a rotation.
func (s *Store) WAL() *wal.Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal
}

// Dir returns the directory the store was opened in with OpenDurable,
// or "" for an in-memory store. It is fixed before the store is shared.
func (s *Store) Dir() string { return s.walDir }

// SetCheckpointHook makes every later Checkpoint call fn once the rows
// are checkpointed, and fail with fn's error. The owner of other state
// kept in Dir (core's rule log) folds it there, so a checkpoint — at
// every commit of the tier, and at shutdown — covers the whole
// directory. Set it before the store is shared.
func (s *Store) SetCheckpointHook(fn func() error) { s.onCheckpoint = fn }

// insertRecovered decodes one recovered record and appends it to the
// log. Checkpoint restore and WAL replay use it, single-threaded inside
// OpenDurable, which sets the seq counter when both are done; both
// deliver ascending seqs.
func (s *Store) insertRecovered(seq uint64, payload []byte) error {
	o, err := s.replayed.decode(seq, payload)
	if err != nil {
		return err
	}
	if l := s.hot; l.n > 0 && l.row(l.n-1).seq >= seq {
		return fmt.Errorf("obstore: recovered record %d does not ascend past %d", seq, l.row(l.n-1).seq)
	}
	s.hot.append(&o)
	return nil
}

// Checkpoint atomically rewrites the checkpoint file from the
// observations the log holds — every live one, or with a cold tier
// attached the hot window its segments do not cover — deletes every WAL
// segment it now covers, and then runs the checkpoint hook, if one is
// set (SetCheckpointHook). After a checkpoint, recovery replays only
// records appended since, and rows deleted for privacy (retention,
// erasure) that were still sitting in the WAL or the previous
// checkpoint are gone from disk.
func (s *Store) Checkpoint() error {
	l := s.WAL()
	if l == nil {
		return fmt.Errorf("obstore: Checkpoint on a non-durable store")
	}
	if err := s.checkpointRows(l); err != nil {
		return err
	}
	if s.onCheckpoint != nil {
		return s.onCheckpoint()
	}
	return nil
}

// checkpointRows is Checkpoint's half for the rows. Calls are
// serialised: a checkpoint cut at a lower high-water mark must not
// replace one that has already truncated the WAL past it.
func (s *Store) checkpointRows(l *wal.Log) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Seal the active segment: truncation deletes only sealed segments,
	// and the active one may hold records of a forgotten subject.
	// Sealing also commits the log, so the checkpoint is never ahead of
	// it. A sealed segment with an append still in flight above the
	// high-water mark survives the truncation below.
	if err := l.Rotate(); err != nil {
		return err
	}
	path := filepath.Join(s.walDir, checkpointFile)
	hwm, err := s.writeCheckpointFile(path)
	if err != nil {
		return err
	}
	deleted, err := l.TruncateBefore(hwm)
	if err != nil {
		return err
	}
	s.logger.Info("obstore: checkpoint written",
		"path", path, "high_water_mark", hwm, "segments_truncated", deleted)
	return nil
}

// writeCheckpointFile writes the checkpoint to a temp file in the same
// directory, fsyncs it, and renames it over path, so a crash mid-write
// can never destroy the previous checkpoint. It returns the high-water
// mark for truncation.
func (s *Store) writeCheckpointFile(path string) (uint64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("obstore: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	hwm, err := s.writeCheckpoint(tmp)
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("obstore: checkpoint fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("obstore: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("obstore: checkpoint rename: %w", err)
	}
	// The rename is durable only once the directory is: until then
	// Checkpoint must fail and leave the WAL untruncated.
	if err := wal.SyncDir(dir); err != nil {
		return 0, fmt.Errorf("obstore: checkpoint dir sync: %w", err)
	}
	return hwm, nil
}

// checkpointBuffer is the largest buffer a checkpoint is written or read
// through; frameEstimate is what it reserves per row below that.
const (
	checkpointBuffer = 256 << 10
	frameEstimate    = 128
)

// bufferFor sizes a checkpoint's buffer for a file of size bytes.
func bufferFor(size int64) int { return int(min(size, checkpointBuffer)) }

// writeCheckpoint frames the checkpoint onto w and returns its
// high-water mark: every WAL record at or below it is covered. The cut
// point is one snapshot of the log: every observation it holds is built
// and written, in ascending seq, and appends landing after it stay in
// the WAL for replay. The buffer is sized by the rows written, so the
// checkpoint of a near-empty hot window is cheap.
func (s *Store) writeCheckpoint(w io.Writer) (uint64, error) {
	v := s.view(Filter{}, nil)

	bw := bufio.NewWriterSize(w, bufferFor(int64(v.n+1)*frameEstimate))
	buf := binary.AppendUvarint(nil, checkpointVersion)
	buf = binary.AppendUvarint(buf, v.hwm)
	buf = binary.AppendUvarint(buf, s.totalIngests.Load())
	buf = binary.AppendUvarint(buf, s.totalSwept.Load())
	buf = binary.AppendUvarint(buf, uint64(v.n))
	if _, err := wal.WriteFrame(bw, 0, buf); err != nil {
		return 0, fmt.Errorf("obstore: checkpoint header: %w", err)
	}
	var o sensor.Observation
	for i := 0; i < v.n; i++ {
		v.build(v.at(i), &o)
		buf = appendObservation(buf[:0], o)
		if _, err := wal.WriteFrame(bw, o.Seq, buf); err != nil {
			return 0, fmt.Errorf("obstore: checkpoint observation %d: %w", o.Seq, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("obstore: checkpoint write: %w", err)
	}
	return v.hwm, nil
}

// readCheckpoint restores a freshly constructed store from a
// checkpoint stream, failing on the first thing writeCheckpoint would
// not have written: a bad CRC or length, a seq that does not ascend or
// exceeds the high-water mark, fewer or more records than the header
// declares, trailing bytes. Errors name the 0-based frame ordinal
// (frame 0 is the header) and byte offset. The caller discards the
// store on error, so nothing is rolled back. A reader that knows its
// size (io.SectionReader, bytes.Reader) is read through a buffer no
// larger than it.
func (s *Store) readCheckpoint(r io.Reader) error {
	size := int64(checkpointBuffer)
	if sr, ok := r.(interface{ Size() int64 }); ok {
		size = sr.Size()
	}
	br := bufio.NewReaderSize(r, bufferFor(size))
	if b, _ := br.Peek(1); len(b) == 1 && b[0] == '{' {
		// A frame file cannot start with '{': the header frame's length
		// byte is far below 0x7b.
		return errors.New("file is in the retired JSON-lines snapshot format; " +
			"checkpoints are WAL frames now and there is no converter — " +
			"remove the data directory and re-ingest")
	}
	var (
		hwm, ingested, swept, count uint64
		frames, last                uint64 // frames seen (header included), last record seq
	)
	size, err := wal.ScanFrames(br, func(seq uint64, payload []byte) error {
		frames++
		if frames == 1 {
			d := &wal.Decoder{Data: payload}
			version := d.Uvarint()
			hwm, ingested, swept, count = d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
			switch {
			case seq != 0:
				return fmt.Errorf("header frame has seq %d, want 0", seq)
			case d.Err != nil:
				return fmt.Errorf("header: %w", d.Err)
			case version != checkpointVersion:
				return fmt.Errorf("unsupported checkpoint version %d", version)
			}
			return nil
		}
		switch {
		case frames-1 > count:
			return fmt.Errorf("trailing frame beyond the %d records the header declares", count)
		case seq <= last:
			return fmt.Errorf("seq %d does not ascend past %d", seq, last)
		case seq > hwm:
			return fmt.Errorf("seq %d is above the high-water mark %d", seq, hwm)
		}
		last = seq
		return s.insertRecovered(seq, payload)
	})
	switch {
	case err != nil:
		return err
	case frames == 0:
		return errors.New("empty file: no header frame")
	case frames-1 != count:
		return fmt.Errorf("file ends at byte %d after frame %d: %d of %d records", size, frames-1, frames-1, count)
	}
	s.nextSeq.Store(hwm)
	s.totalIngests.Store(ingested)
	s.totalSwept.Store(swept)
	return nil
}

// Close commits and closes the WAL, if any. The store itself needs no
// teardown; Close is idempotent and safe on non-durable stores.
func (s *Store) Close() error {
	s.mu.Lock()
	l := s.wal
	s.wal = nil
	s.mu.Unlock()
	if l == nil {
		return nil
	}
	return l.Close()
}

// --- binary observation codec ---------------------------------------
//
// WAL and checkpoint payloads use a compact length-prefixed binary
// encoding instead of JSON: the ingest hot path pays for this on every
// observation, and the acceptance bar is staying within 3x of the
// in-memory append. The observation's Seq travels in the WAL frame, not the
// payload. Times are stored as Unix nanoseconds (UTC on decode).

const obsCodecVersion = 1

// appendObservation serializes o (sans Seq) onto buf.
func appendObservation(buf []byte, o sensor.Observation) []byte {
	buf = binary.AppendUvarint(buf, obsCodecVersion)
	buf = wal.AppendString(buf, o.SensorID)
	buf = wal.AppendString(buf, string(o.Kind))
	buf = binary.AppendVarint(buf, o.Time.UnixNano())
	buf = wal.AppendString(buf, o.SpaceID)
	buf = wal.AppendString(buf, o.DeviceMAC)
	buf = wal.AppendString(buf, o.UserID)
	buf = binary.AppendUvarint(buf, math.Float64bits(o.Value))
	buf = binary.AppendUvarint(buf, uint64(len(o.Payload)))
	// Sorted keys make the encoding a function of the observation, not
	// of map iteration order: equal stores write equal bytes.
	keys := make([]string, 0, 8) // stays on the stack for typical payloads
	for k := range o.Payload {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = wal.AppendString(buf, k)
		buf = wal.AppendString(buf, o.Payload[k])
	}
	return buf
}

// decodeObservation is the inverse of appendObservation.
func decodeObservation(seq uint64, data []byte) (sensor.Observation, error) {
	return payloadTable(nil).decode(seq, data)
}

// replayTableCap bounds a payloadTable: a replay whose payloads are
// all distinct clears it when full rather than keep one key per row.
const replayTableCap = 1024

// payloadTable maps a record's payload section — the bytes from its
// pair count to the end, which the payload is a function of — to the
// one map decoded from them. A nil table shares nothing.
type payloadTable map[string]map[string]string

// decode is decodeObservation, taking an equal payload's map from t.
func (t payloadTable) decode(seq uint64, data []byte) (sensor.Observation, error) {
	d := &wal.Decoder{Data: data}
	var o sensor.Observation
	if v := d.Uvarint(); v != obsCodecVersion {
		return o, fmt.Errorf("obstore: record %d: unsupported codec version %d", seq, v)
	}
	o.Seq = seq
	o.SensorID = d.Str()
	o.Kind = sensor.ObservationKind(d.Str())
	o.Time = time.Unix(0, d.Varint()).UTC()
	o.SpaceID = d.Str()
	o.DeviceMAC = d.Str()
	o.UserID = d.Str()
	o.Value = math.Float64frombits(d.Uvarint())
	section := d.Off
	if n := d.Uvarint(); n > 0 {
		if m, ok := t[string(data[section:])]; ok {
			o.Payload = m
			return o, nil
		}
		// Each entry needs at least two length prefixes; reject counts
		// the remaining bytes cannot possibly hold.
		if rem := uint64(len(d.Data) - d.Off); n > rem/2+1 {
			return o, fmt.Errorf("obstore: record %d: payload count %d exceeds data", seq, n)
		}
		o.Payload = make(map[string]string, n)
		for i := uint64(0); i < n; i++ {
			k := d.Str()
			o.Payload[k] = d.Str()
		}
		if t != nil && d.Err == nil {
			if len(t) >= replayTableCap {
				clear(t)
			}
			t[string(data[section:])] = o.Payload
		}
	}
	if d.Err != nil {
		return sensor.Observation{}, fmt.Errorf("obstore: record %d: %w", seq, d.Err)
	}
	return o, nil
}
