package core

// This file is the rule log: on a node whose observation store is
// durable, user preferences are durable too. An opt-out the IoTA sent
// (Figure 1 step 8) must hold until the user withdraws it, and a node
// that forgot it at a restart would release, on DefaultAllow, the very
// rows the user had withheld.
//
// The log is one file in the store's directory, in internal/wal's
// framing. Every SetPreference and RemovePreference appends one binary
// record inside mutateRules and fsyncs it before the mutation becomes
// visible, so what a node acknowledged is what it replays. New replays
// the file before it returns, so no request is decided without the
// rules; damage other than a torn final frame makes New fail rather
// than serve without them.
//
// A fold rewrites the file as one flate-compressed snapshot of the live
// preferences (written to a temp file, fsynced, renamed over the log).
// The log folds at every store Checkpoint, at once after ForgetUser, so
// the subject's earlier records leave disk with their rows, and on its
// own once the records appended since the last fold outgrow the live
// set they fold into (and foldFloor), so a node that never checkpoints
// keeps a bounded log and a fold's cost is amortised over the records
// it drops.
//
// Building policies are not logged: they come from the deployment's
// configuration, which registers them again at every boot.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"github.com/tippers/tippers/internal/policy"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/wal"
)

const (
	// ruleLogFile is the rule log inside a durable store's directory; a
	// fold in progress writes ruleLogFile + ".tmp-*".
	ruleLogFile = "rules.log"
	// foldFloor is the least tail that folds the log on its own. Below
	// it a replay takes milliseconds whatever the live set, and a fold
	// allocates a flate compressor (≈ 0.8 MB) every time it runs.
	foldFloor = 1 << 20
	// frameHeader is the wal framing's length and CRC words, frameOverhead
	// a frame's bytes around its payload (the header and the seq).
	frameHeader   = 8
	frameOverhead = frameHeader + 8
)

// Record kinds, the first byte of every frame's payload. A change to a
// record's encoding takes a new kind.
const (
	// recSnapshot is the live preferences, flate-compressed: a uvarint
	// count, then that many encoded preferences. Only the first frame
	// can be one.
	recSnapshot byte = 1
	// recSet installs or replaces one encoded preference.
	recSet byte = 2
	// recRemove uninstalls the preference whose ID follows.
	recRemove byte = 3
)

// ErrRuleLog marks a failed write to the rule log. A mutation refused
// with it changed nothing: neither the engine nor Preferences holds it.
// From ForgetUser it means the erasure has not reached the log's file.
var ErrRuleLog = errors.New("core: rule log write failed")

// ruleLog is the open log. Every method runs under BMS.mu; the methods
// that write are no-ops on a nil log (an in-memory store), and fail
// with ErrRuleLog once the log is closed or broken.
type ruleLog struct {
	path string
	f    *os.File // nil once closed or broken
	w    *bufio.Writer
	seq  uint64 // the last record's frame seq; a snapshot frame carries the last one it folded
	size int64  // bytes in the file, all of them whole frames
	tail int64  // bytes appended since the last fold
	live int64  // the live set's encoded size at the last fold, before compression
	buf  []byte // the record encoder's buffer, reused
}

// openRuleLog opens or creates the rule log in dir and replays it in
// log order through set and remove. A final frame cut short by a crash
// is dropped and truncated away; any other damage is an error.
func openRuleLog(dir string, set func(policy.Preference) error, remove func(id string)) (*ruleLog, error) {
	path := filepath.Join(dir, ruleLogFile)
	// A crash mid-fold leaves its temp file behind, holding preferences
	// no later fold or erasure touches.
	stale, err := filepath.Glob(filepath.Join(dir, ruleLogFile+".tmp-*"))
	if err != nil {
		return nil, err
	}
	for _, name := range stale {
		if err := os.Remove(name); err != nil {
			return nil, fmt.Errorf("core: removing stale rule log temp file: %w", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("core: reading rule log: %w", err)
	}
	created := os.IsNotExist(err)
	l := &ruleLog{path: path}
	end, err := l.replay(data, set, remove)
	if err != nil {
		return nil, fmt.Errorf("core: replaying rule log %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("core: opening rule log: %w", err)
	}
	if end < int64(len(data)) {
		// The torn frame goes, so the next record follows a whole one.
		err = f.Truncate(end)
		if err == nil {
			err = f.Sync()
		}
	}
	if err == nil && created {
		err = wal.SyncDir(dir)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("core: opening rule log: %w", err)
	}
	l.f, l.w, l.size = f, bufio.NewWriter(f), end
	return l, nil
}

// replay applies the frames in data and returns the length of the
// whole-frame prefix it applied, which is all of data unless the last
// frame is torn.
func (l *ruleLog) replay(data []byte, set func(policy.Preference) error, remove func(string)) (int64, error) {
	frames := 0
	var bad error // a frame whose CRC holds that does not decode or apply
	end, err := wal.ScanFrames(bytes.NewReader(data), func(seq uint64, payload []byte) error {
		frames++
		if frames > 1 && seq <= l.seq {
			bad = fmt.Errorf("record seq %d does not ascend past %d", seq, l.seq)
			return bad
		}
		l.seq = seq
		if bad = l.apply(payload, frames == 1, set, remove); bad != nil {
			return bad
		}
		if frames > 1 || payload[0] != recSnapshot {
			l.tail += frameOverhead + int64(len(payload))
		}
		return nil
	})
	if err != nil && (bad != nil || !torn(data[end:])) {
		return 0, err
	}
	return end, nil
}

// torn reports whether rest, the bytes from the first bad frame on, is
// what a crash during the last append leaves: a header cut short, a
// plausible length that reaches the end of the file, or zeroes.
func torn(rest []byte) bool {
	if len(rest) < frameHeader {
		return true
	}
	if n := int64(binary.LittleEndian.Uint32(rest)); n <= wal.MaxRecordBytes && frameHeader+n >= int64(len(rest)) {
		return true
	}
	return !slices.ContainsFunc(rest, func(b byte) bool { return b != 0 })
}

// apply decodes one record and applies it.
func (l *ruleLog) apply(payload []byte, first bool, set func(policy.Preference) error, remove func(string)) error {
	if len(payload) == 0 {
		return errors.New("empty record")
	}
	d := &wal.Decoder{Data: payload[1:]}
	switch payload[0] {
	case recSet:
		p := decodePreference(d)
		if err := decoded(d); err != nil {
			return err
		}
		return set(p)
	case recRemove:
		id := d.Str()
		if err := decoded(d); err != nil {
			return err
		}
		remove(id)
		return nil
	case recSnapshot:
		if !first {
			return errors.New("snapshot record after the first frame")
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload[1:])))
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		l.live = int64(len(raw))
		d = &wal.Decoder{Data: raw}
		for n := d.Uvarint(); n > 0 && d.Err == nil; n-- {
			p := decodePreference(d)
			if d.Err == nil {
				if err := set(p); err != nil {
					return fmt.Errorf("snapshot preference %s: %w", p.ID, err)
				}
			}
		}
		if err := decoded(d); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		return nil
	}
	return fmt.Errorf("unknown record kind %d", payload[0])
}

// set logs p installed or replaced.
func (l *ruleLog) set(p *policy.Preference) error {
	if l == nil {
		return nil
	}
	l.buf = appendPreference(append(l.buf[:0], recSet), p)
	return l.write()
}

// remove logs preference id uninstalled.
func (l *ruleLog) remove(id string) error {
	if l == nil {
		return nil
	}
	l.buf = wal.AppendString(append(l.buf[:0], recRemove), id)
	return l.write()
}

// write frames l.buf as the next record and fsyncs it. On failure the
// file is cut back to the records before it, so a later record never
// follows a partial one; a log that cannot be cut back is closed, and
// every later write fails.
func (l *ruleLog) write() error {
	if l.f == nil {
		return fmt.Errorf("%w: %s is closed", ErrRuleLog, l.path)
	}
	n, err := wal.WriteFrame(l.w, l.seq+1, l.buf)
	if err == nil {
		err = l.w.Flush()
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.w.Reset(l.f)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.f.Close()
			l.f = nil
		}
		return fmt.Errorf("%w: %w", ErrRuleLog, err)
	}
	l.seq++
	l.size += n
	l.tail += n
	return nil
}

// due reports whether the records since the last fold outgrow both the
// live set they would fold into and foldFloor.
func (l *ruleLog) due() bool {
	return l != nil && l.f != nil && l.tail > max(l.live, foldFloor)
}

// fold rewrites the log as one snapshot frame of prefs, the live rule
// state: a temp file is written and fsynced, then renamed over the log,
// which then continues in it. Until the rename the old file stays the
// log, so a failed fold changes nothing.
func (l *ruleLog) fold(prefs map[string][]policy.Preference) (err error) {
	if l == nil {
		return nil
	}
	if l.f == nil {
		return fmt.Errorf("%w: %s is closed", ErrRuleLog, l.path)
	}
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w: folding: %w", ErrRuleLog, err)
		}
	}()
	owners := make([]string, 0, len(prefs))
	n := 0
	for owner, ps := range prefs {
		owners = append(owners, owner)
		n += len(ps)
	}
	slices.Sort(owners)
	var z bytes.Buffer
	z.WriteByte(recSnapshot)
	zw, err := flate.NewWriter(&z, flate.BestCompression)
	if err != nil {
		return err
	}
	l.buf = binary.AppendUvarint(l.buf[:0], uint64(n))
	live := int64(len(l.buf))
	zw.Write(l.buf) // a bytes.Buffer does not fail
	for _, owner := range owners {
		for i := range prefs[owner] {
			l.buf = appendPreference(l.buf[:0], &prefs[owner][i])
			live += int64(len(l.buf))
			zw.Write(l.buf)
		}
	}
	zw.Close()

	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, ruleLogFile+".tmp-*")
	if err != nil {
		return err
	}
	l.w.Reset(tmp)
	size, err := wal.WriteFrame(l.w, l.seq, z.Bytes())
	if err == nil {
		err = l.w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), l.path)
	}
	if err != nil {
		l.w.Reset(l.f)
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// The old file is unlinked: from here on the log is tmp's.
	l.f.Close()
	l.f, l.size, l.tail, l.live = tmp, size, 0, live
	return wal.SyncDir(dir)
}

// close closes the log; later writes fail.
func (l *ruleLog) close() error {
	if l == nil || l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// --- preference codec ------------------------------------------------
//
// Scope.SubjectIDs and Scope.SubjectGroups are not encoded: a
// preference's subject is its owner, and Preference.Check refuses both.

func appendPreference(buf []byte, p *policy.Preference) []byte {
	buf = wal.AppendString(buf, p.ID)
	buf = wal.AppendString(buf, p.UserID)
	buf = wal.AppendString(buf, p.Name)
	buf = wal.AppendString(buf, p.Source)
	sc := &p.Scope
	buf = wal.AppendString(buf, sc.SpaceID)
	buf = binary.AppendVarint(buf, int64(sc.SensorType))
	buf = wal.AppendString(buf, string(sc.ObsKind))
	buf = binary.AppendUvarint(buf, uint64(len(sc.Purposes)))
	for _, pu := range sc.Purposes {
		buf = wal.AppendString(buf, string(pu))
	}
	buf = wal.AppendString(buf, sc.ServiceID)
	buf = binary.AppendVarint(buf, int64(sc.Window.Start))
	buf = binary.AppendVarint(buf, int64(sc.Window.End))
	buf = binary.AppendUvarint(buf, uint64(sc.Window.Days))
	buf = binary.AppendVarint(buf, int64(p.Rule.Action))
	buf = binary.AppendVarint(buf, int64(p.Rule.MaxGranularity))
	buf = binary.AppendUvarint(buf, math.Float64bits(p.Rule.NoiseEpsilon))
	return binary.AppendVarint(buf, int64(p.Rule.MinAggregationK))
}

func decodePreference(d *wal.Decoder) policy.Preference {
	var p policy.Preference
	p.ID, p.UserID, p.Name, p.Source = d.Str(), d.Str(), d.Str(), d.Str()
	sc := &p.Scope
	sc.SpaceID = d.Str()
	sc.SensorType = sensor.Type(d.Varint())
	sc.ObsKind = sensor.ObservationKind(d.Str())
	// Each purpose takes at least its length byte.
	if n := d.Uvarint(); n > uint64(len(d.Data)-d.Off) {
		d.Err = fmt.Errorf("purpose count %d exceeds the record", n)
	} else if n > 0 {
		sc.Purposes = make([]policy.Purpose, n)
		for i := range sc.Purposes {
			sc.Purposes[i] = policy.Purpose(d.Str())
		}
	}
	sc.ServiceID = d.Str()
	sc.Window.Start, sc.Window.End = int(d.Varint()), int(d.Varint())
	sc.Window.Days = policy.Weekdays(d.Uvarint())
	p.Rule.Action = policy.Action(d.Varint())
	p.Rule.MaxGranularity = policy.Granularity(d.Varint())
	p.Rule.NoiseEpsilon = math.Float64frombits(d.Uvarint())
	p.Rule.MinAggregationK = int(d.Varint())
	return p
}

// decoded reports d's first error, or bytes left over.
func decoded(d *wal.Decoder) error {
	if d.Err == nil && d.Off != len(d.Data) {
		d.Err = fmt.Errorf("%d trailing bytes", len(d.Data)-d.Off)
	}
	return d.Err
}
