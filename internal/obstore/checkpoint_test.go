package obstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/isodur"
	"github.com/tippers/tippers/internal/sensor"
	"github.com/tippers/tippers/internal/wal"
)

// checkpointBytes frames s's checkpoint into memory.
func checkpointBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.writeCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// craftCheckpoint builds a checkpoint by hand: a header frame holding
// the given fields (version, hwm, ingested, swept, count) and one
// observation frame per seq, so tests can write files writeCheckpoint
// never would.
func craftCheckpoint(t testing.TB, header []uint64, seqs ...uint64) []byte {
	t.Helper()
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	var hdr []byte
	for _, v := range header {
		hdr = binary.AppendUvarint(hdr, v)
	}
	if _, err := wal.WriteFrame(bw, 0, hdr); err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		if _, err := wal.WriteFrame(bw, seq, appendObservation(nil, durableObs(i, "mary"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// frameOffsets returns the byte offset of every frame in raw plus
// len(raw): the boundaries a truncation can land exactly on.
func frameOffsets(raw []byte) []int {
	var offs []int
	for off := 0; off < len(raw); off += 8 + int(binary.LittleEndian.Uint32(raw[off:])) {
		offs = append(offs, off)
	}
	return append(offs, len(raw))
}

func mustRejectCheckpoint(t *testing.T, name string, raw []byte, wantInErr ...string) {
	t.Helper()
	err := New().readCheckpoint(bytes.NewReader(raw))
	if err == nil {
		t.Errorf("%s: accepted", name)
		return
	}
	for _, w := range wantInErr {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("%s: error %q does not mention %q", name, err, w)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	src := newPopulatedStore(t)
	for i := 0; i < 3; i++ {
		o := durableObs(100+i, "zoe")
		o.SensorID = "ap-9"
		o.Payload = map[string]string{"rssi": "-60", "event": "assoc", "": "empty-key", "ch": ""}
		if _, err := src.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	// Exercise the counters: sweep something first.
	src.SetClock(func() time.Time { return t0.Add(time.Hour) })
	src.AddRetentionRule(RetentionRule{Kind: sensor.ObsPowerReading, TTL: isodur.MustParse("PT1M")})
	src.AddRetentionRule(RetentionRule{Kind: sensor.ObsCameraFrame, TTL: isodur.MustParse("PT1M")})
	if n := src.Sweep(t0.Add(time.Hour)); n != 2 {
		t.Fatalf("sweep = %d", n)
	}

	dst := New()
	if err := dst.readCheckpoint(bytes.NewReader(checkpointBytes(t, src))); err != nil {
		t.Fatal(err)
	}
	if got, want := dst.Query(Filter{}), src.Query(Filter{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored rows differ:\n got %+v\nwant %+v", got, want)
	}
	if got, want := dst.counters(), src.counters(); got != want {
		t.Errorf("stats drifted: %+v vs %+v", got, want)
	}
	// New appends continue the sequence past the swept seqs too.
	o, err := dst.Append(sensor.Observation{SensorID: "new", Kind: sensor.ObsWiFiConnect, Time: t0.Add(2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if want := src.nextSeq.Load() + 1; o.Seq != want {
		t.Fatalf("post-restore seq = %d, want %d", o.Seq, want)
	}
}

// TestCheckpointWriterSizedByRows: a checkpoint's buffer is sized by the
// rows it writes, so the checkpoint of a one-row hot window — what a
// node writes at a compaction commit that sealed everything but the
// open hour's first row — allocates at most 16 KiB, not a 256 KiB
// buffer.
func TestCheckpointWriterSizedByRows(t *testing.T) {
	s := New()
	appendAll(t, s, []sensor.Observation{durableObs(0, "mary")})
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := s.writeCheckpoint(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Fatalf("a one-row checkpoint allocates %d bytes, want at most %d", per, 16<<10)
	}
}

func TestCheckpointEmptyStore(t *testing.T) {
	dst := New()
	if err := dst.readCheckpoint(bytes.NewReader(checkpointBytes(t, New()))); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 0 || dst.nextSeq.Load() != 0 {
		t.Errorf("restored %d observations, next seq %d, from an empty checkpoint", dst.Len(), dst.nextSeq.Load())
	}
}

// TestCheckpointRejectsTruncation cuts a checkpoint at every byte:
// exactly on a frame boundary the frames that remain are all valid and
// only the header's count gives the loss away; anywhere else the last
// frame is short.
func TestCheckpointRejectsTruncation(t *testing.T) {
	src := newPopulatedStore(t)
	raw := checkpointBytes(t, src)
	boundary := make(map[int]int) // offset -> frames before it
	for n, off := range frameOffsets(raw) {
		boundary[off] = n
	}
	if len(boundary) != src.Len()+2 {
		t.Fatalf("%d frame boundaries, want %d", len(boundary), src.Len()+2)
	}
	for cut := 0; cut < len(raw); cut++ {
		dst := New()
		err := dst.readCheckpoint(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("checkpoint truncated to %d of %d bytes accepted", cut, len(raw))
		}
		frames, onBoundary := boundary[cut]
		var want string
		switch {
		case cut == 0:
			want = "no header frame"
		case onBoundary:
			want = "file ends at byte " + strconv.Itoa(cut) + " after frame " + strconv.Itoa(frames-1) +
				": " + strconv.Itoa(frames-1) + " of " + strconv.Itoa(src.Len()) + " records"
		default:
			want = "short frame"
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cut at %d: error %q does not mention %q", cut, err, want)
		}
	}
}

func TestCheckpointRejectsBitFlips(t *testing.T) {
	raw := checkpointBytes(t, newPopulatedStore(t))
	for i := range raw {
		flipped := bytes.Clone(raw)
		flipped[i] ^= 1 << (i % 8)
		if err := New().readCheckpoint(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("bit %d of byte %d flipped: accepted", i%8, i)
		}
	}
	// A flip inside a record's payload is precisely what JSONL let
	// through: the checksum names the frame.
	offs := frameOffsets(raw)
	flipped := bytes.Clone(raw)
	flipped[offs[3]-1] ^= 0x10 // last payload byte of frame 2
	mustRejectCheckpoint(t, "payload bit flip", flipped,
		"frame 2 at byte "+strconv.Itoa(offs[2]), "CRC mismatch")
}

func TestCheckpointRejectsMalformed(t *testing.T) {
	good := craftCheckpoint(t, []uint64{checkpointVersion, 9, 12, 3, 3}, 2, 5, 9)
	if err := New().readCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatalf("hand-built checkpoint rejected: %v", err)
	}
	offs := frameOffsets(good)
	lastFrame := "frame 3 at byte " + strconv.Itoa(offs[3])

	mustRejectCheckpoint(t, "trailing garbage", append(bytes.Clone(good), 0xFF, 0x01, 0x02),
		"frame 4 at byte "+strconv.Itoa(len(good)), "short frame header")
	mustRejectCheckpoint(t, "trailing frame",
		craftCheckpoint(t, []uint64{checkpointVersion, 9, 12, 3, 2}, 2, 5, 9),
		lastFrame, "beyond the 2 records")
	mustRejectCheckpoint(t, "count too high",
		craftCheckpoint(t, []uint64{checkpointVersion, 9, 12, 3, 4}, 2, 5, 9),
		"after frame 3", "3 of 4 records")
	mustRejectCheckpoint(t, "duplicate seq",
		craftCheckpoint(t, []uint64{checkpointVersion, 9, 12, 3, 3}, 2, 5, 5),
		lastFrame, "seq 5 does not ascend past 5")
	mustRejectCheckpoint(t, "descending seq",
		craftCheckpoint(t, []uint64{checkpointVersion, 9, 12, 3, 3}, 2, 5, 4),
		lastFrame, "seq 4 does not ascend past 5")
	mustRejectCheckpoint(t, "zero seq",
		craftCheckpoint(t, []uint64{checkpointVersion, 9, 12, 3, 1}, 0),
		"frame 1", "seq 0 does not ascend")
	mustRejectCheckpoint(t, "seq above high-water mark",
		craftCheckpoint(t, []uint64{checkpointVersion, 9, 12, 3, 3}, 2, 5, 10),
		lastFrame, "above the high-water mark 9")
	mustRejectCheckpoint(t, "bad version",
		craftCheckpoint(t, []uint64{9, 0, 0, 0, 0}),
		"frame 0 at byte 0", "unsupported checkpoint version 9")
	mustRejectCheckpoint(t, "short header",
		craftCheckpoint(t, []uint64{checkpointVersion, 9}),
		"frame 0 at byte 0", "header")
	mustRejectCheckpoint(t, "record where the header belongs", good[offs[1]:],
		"frame 0 at byte 0", "header frame has seq 2")
	mustRejectCheckpoint(t, "legacy JSONL",
		[]byte(`{"version":1,"next_seq":1,"ingested":1,"swept":0,"count":1}`+"\n"+
			`{"seq":1,"sensor_id":"a","kind":"k","time":"2017-06-01T08:00:00Z"}`+"\n"),
		"retired JSON-lines snapshot format")
}
