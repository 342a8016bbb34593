package colstore

// Manifest: the single durable commit point for the WAL → segment
// handoff. Segment files are immutable and fsynced before the
// manifest ever names them; the manifest itself is replaced by the
// classic tmp + fsync + rename + directory-fsync dance. A crash at
// any instant therefore leaves exactly one of two states: the old
// manifest (new segment files are unreferenced orphans, deleted on
// open) or the new manifest (every referenced file is already
// durable). The compaction watermark and the erasure tombstones live
// in the manifest too, so "which seqs the segments own" and "which
// rows erasure has condemned" survive SIGKILL together with the
// segments themselves.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/tippers/tippers/internal/wal"
)

const manifestName = "MANIFEST.json"

// manifestSegment records one live segment file.
type manifestSegment struct {
	ID      uint64 `json:"id"`
	File    string `json:"file"`
	Bucket  int64  `json:"bucket_unix_nano"`
	Rows    int    `json:"rows"`
	MinSeq  uint64 `json:"min_seq"`
	MaxSeq  uint64 `json:"max_seq"`
	MinTime int64  `json:"min_time_unix_nano"`
	MaxTime int64  `json:"max_time_unix_nano"`
	Bytes   int64  `json:"bytes"`
}

// manifestState is the full persisted state of the columnar tier.
type manifestState struct {
	Version   int               `json:"version"`
	Watermark uint64            `json:"watermark"`
	NextID    uint64            `json:"next_id"`
	Segments  []manifestSegment `json:"segments"`
	// SeqTombstones are sealed rows deleted since, by retention or
	// erasure. They are applied as read filters immediately and
	// rewritten out of segment files by the next compaction.
	SeqTombstones []uint64 `json:"seq_tombstones,omitempty"`
}

// segFileName is "seg-%08d.col" of id, built in one allocation.
func segFileName(id uint64) string {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], id, 10)
	var name [32]byte
	b := append(name[:0], "seg-"...)
	for range 8 - len(d) {
		b = append(b, '0')
	}
	return string(append(append(b, d...), ".col"...))
}

// writeManifest atomically replaces the manifest in dir.
func writeManifest(dir string, st manifestState) error {
	st.Version = 1
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return wal.SyncDir(dir)
}

// readManifest loads the manifest, returning the zero state when none
// exists yet (fresh directory).
func readManifest(dir string) (manifestState, error) {
	var st manifestState
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("colstore: manifest corrupt: %w", err)
	}
	return st, nil
}

// writeSegmentFile durably writes one segment's encoded bytes. The
// file must be fully on disk before the manifest references it.
func writeSegmentFile(dir, name string, data []byte) error {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepOrphans removes segment files a crash left behind without a
// manifest reference (either half-written new segments or replaced
// ones whose delete didn't land).
func sweepOrphans(dir string, live map[string]bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || live[name] {
			continue
		}
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".col") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
		if name == manifestName+".tmp" {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return wal.SyncDir(dir)
}
