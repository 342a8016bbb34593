package colstore

// The streaming segment builder against the layout it replaced: the
// slice-based builder, kept here as the oracle with its columns at full
// width, laid a bucket's rows out column by column from a
// []sensor.Observation that compaction first copied them into. Every segment compaction now seals, fresh or
// rewritten, must encode to the bytes that builder lays out for the same
// rows.

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// buildSegment lays out rows (ascending seq, all in one bucket) through
// the streaming builder.
func buildSegment(id uint64, bucket time.Time, rows []sensor.Observation) (*segment, error) {
	b := newPass().builder(bucket, len(rows), nil)
	for i := range rows {
		b.add(&rows[i])
	}
	return b.seal(id, nil)
}

// parentBuilder is the slice-based builder compaction used before it
// streamed rows into columns.
type parentBuilder struct {
	pos    map[string]uint32
	dict   []string
	shared map[string]uint64
	enc    []byte
}

// wide holds a column as the parent's builder did: every entry at 8 B,
// which encodes exactly as a packed column does.
func wide[T uint32 | uint64](vals []T) uints {
	c := newUints(len(vals), len(vals), 0, 1, 8)
	for i, v := range vals {
		c.set(i, uint64(v))
	}
	return c
}

func (b *parentBuilder) column(rows []sensor.Observation, field func(*sensor.Observation) string) dictCol {
	if b.pos == nil {
		b.pos = make(map[string]uint32)
	}
	clear(b.pos)
	b.dict = b.dict[:0]
	idx := make([]uint32, len(rows))
	for i := range rows {
		v := field(&rows[i])
		p, ok := b.pos[v]
		if !ok {
			p = uint32(len(b.dict))
			b.dict = append(b.dict, v)
			b.pos[v] = p
		}
		idx[i] = p
	}
	c := dictCol{dict: slices.Clone(b.dict), idx: wide(idx)}
	c.sortDict()
	return c
}

func (b *parentBuilder) payload(sg *segment, p map[string]string) uint64 {
	b.enc = appendPayload(b.enc[:0], p)
	if id, ok := b.shared[string(b.enc)]; ok {
		return id
	}
	sg.payloads = append(sg.payloads, maps.Clone(p))
	b.shared[string(b.enc)] = uint64(len(sg.payloads))
	return uint64(len(sg.payloads))
}

func (b *parentBuilder) build(id uint64, bucket time.Time, rows []sensor.Observation) (*segment, error) {
	if len(rows) == 0 {
		return nil, errors.New("colstore: empty segment")
	}
	if b.shared == nil {
		b.shared = make(map[string]uint64)
	}
	clear(b.shared)
	sg := &segment{
		id:     id,
		bucket: bucket.UTC(),
		values: floats{raw: make([]float64, len(rows))},
	}
	seqs, times, payloads := make([]uint64, len(rows)), make([]uint64, len(rows)), make([]uint64, len(rows))
	for i := range rows {
		o := &rows[i]
		if i > 0 && o.Seq <= rows[i-1].Seq {
			return nil, fmt.Errorf("colstore: segment rows out of seq order (%d after %d)", o.Seq, rows[i-1].Seq)
		}
		seqs[i] = o.Seq
		times[i] = timeKey(o.Time.UnixNano())
		sg.values.raw[i] = o.Value
		if len(o.Payload) > 0 {
			payloads[i] = b.payload(sg, o.Payload)
		}
	}
	sg.seqs, sg.times, sg.payloadIDs = wide(seqs), wide(times), wide(payloads)
	sg.sensors = b.column(rows, func(o *sensor.Observation) string { return o.SensorID })
	sg.spaces = b.column(rows, func(o *sensor.Observation) string { return o.SpaceID })
	sg.users = b.column(rows, func(o *sensor.Observation) string { return o.UserID })
	sg.kinds = b.column(rows, func(o *sensor.Observation) string { return string(o.Kind) })
	sg.macs = b.column(rows, func(o *sensor.Observation) string { return o.DeviceMAC })
	sg.index()
	return sg, nil
}

// TestStreamingBuilderMatchesParentLayout: rows spread over four closed
// hours out of time order — repeated and distinct payloads, rows with
// no subject and no MAC — and a few in the open hour, which fence the
// watermark, are compacted; then subjects sealed in segments are erased,
// the clock moves on, and the next pass both rewrites the touched
// segments and seals the fenced rows. After each pass every segment
// holds exactly the live sealed rows of its bucket, encodes to the very
// bytes the parent's builder lays out for them, and decodes back to
// them.
func TestStreamingBuilderMatchesParentLayout(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := csNow
		src := obstore.New()
		cs, err := Open(Config{Clock: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		if err := cs.AttachStore(src); err != nil {
			t.Fatal(err)
		}
		live := map[uint64]sensor.Observation{}
		for i, o := range layoutRows(rng, csNow.Add(-4*time.Hour), 4000) {
			o.Time = o.Time.Add(time.Duration(rng.Intn(4)) * time.Hour)
			if i > 3500 && rng.Intn(50) == 0 {
				o.Time = csNow.Add(time.Duration(rng.Int63n(int64(time.Hour))))
			}
			got, err := src.Append(o)
			if err != nil {
				t.Fatal(err)
			}
			live[got.Seq] = got
		}

		check := func(stage string) []*segment {
			t.Helper()
			cs.mu.RLock()
			segs, wm := cs.segs, cs.wm
			cs.mu.RUnlock()
			seen := map[uint64]bool{}
			for _, sg := range segs {
				rows := make([]sensor.Observation, sg.rows())
				for i := range sg.rows() {
					seq := sg.seq(i)
					o, ok := live[seq]
					if !ok || seen[seq] || !o.Time.Truncate(time.Hour).Equal(sg.bucket) {
						t.Fatalf("seed %d, %s: segment %d holds seq %d (live %v, seen %v)", seed, stage, sg.id, seq, ok, seen[seq])
					}
					seen[seq] = true
					o.Time = o.Time.UTC()
					rows[i] = o
				}
				want, err := new(parentBuilder).build(sg.id, sg.bucket, rows)
				if err != nil {
					t.Fatal(err)
				}
				data := sg.encode()
				if !bytes.Equal(data, want.encode()) {
					t.Fatalf("seed %d, %s: segment %d (%d rows) encodes differently from the parent's layout", seed, stage, sg.id, sg.rows())
				}
				dec, err := decodeSegment(sg.id, data, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range rows {
					if got := dec.row(i); !reflect.DeepEqual(got, rows[i]) {
						t.Fatalf("seed %d, %s: segment %d row %d decodes to %+v, want %+v", seed, stage, sg.id, i, got, rows[i])
					}
				}
			}
			for seq := range live {
				if seq <= wm && !seen[seq] {
					t.Fatalf("seed %d, %s: live row %d at or below the watermark %d is in no segment", seed, stage, seq, wm)
				}
			}
			return segs
		}

		if _, err := cs.CompactOnce(); err != nil {
			t.Fatal(err)
		}
		first := check("first pass")
		if wm := cs.Watermark(); wm == 0 || src.Resident() == 0 {
			t.Fatalf("seed %d: the open-hour rows fenced nothing (watermark %d, resident %d)", seed, wm, src.Resident())
		}

		for range 3 {
			victim := fmt.Sprintf("u%03d", rng.Intn(300))
			src.DeleteUser(victim, nil)
			for seq, o := range live {
				if o.UserID == victim {
					delete(live, seq)
				}
			}
		}
		if cs.Stats().SeqTombstones == 0 {
			t.Fatalf("seed %d: the erasures left no tombstone to rewrite", seed)
		}
		now = now.Add(2 * time.Hour)
		if _, err := cs.CompactOnce(); err != nil {
			t.Fatal(err)
		}
		second := check("second pass")
		if src.Resident() != 0 {
			t.Fatalf("seed %d: resident %d after the clock passed every row", seed, src.Resident())
		}
		rewritten := 0
		for _, sg := range first {
			if !slices.Contains(second, sg) {
				rewritten++
			}
		}
		if rewritten == 0 {
			t.Fatalf("seed %d: no segment was rewritten", seed)
		}
	}
}

// TestSealedColumnsHaveNoSlack: compaction counts each bucket's rows
// before it builds the bucket's segment, and every column of every
// segment it seals — fresh or rewritten — has no capacity past its
// length and is at its narrowest width: when the counts are exact, when
// a row is deleted between the count and the build, and when a late row
// lands in a closed bucket between them.
func TestSealedColumnsHaveNoSlack(t *testing.T) {
	src, cs := newPair(t, "")
	add := func(minute, n int, user string) {
		t.Helper()
		for i := range n {
			o := obsAt("ap-1", "s1", fmt.Sprintf("%s%d", user, i%3), sensor.ObsWiFiConnect,
				csNow.Add(time.Duration(minute)*time.Minute+time.Duration(i)*time.Second), float64(i))
			if i%4 == 0 {
				o.Payload = map[string]string{"event": "assoc"}
			}
			if _, err := src.Append(o); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(stage string, rows map[int64]int) {
		t.Helper()
		cs.mu.RLock()
		segs := cs.segs
		cs.mu.RUnlock()
		for _, sg := range segs {
			if want, ok := rows[sg.bucket.UnixNano()]; ok && sg.rows() != want {
				t.Fatalf("%s: the segment of %v holds %d rows, want %d", stage, sg.bucket, sg.rows(), want)
			}
			slack := map[string][2]int{
				"raw values": {len(sg.values.raw), cap(sg.values.raw)}, "value dictionary": {len(sg.values.dict), cap(sg.values.dict)},
				"payloads": {len(sg.payloads), cap(sg.payloads)},
			}
			for i, col := range sg.cols() {
				slack[fmt.Sprintf("dict %d", i)] = [2]int{len(col.dict), cap(col.dict)}
			}
			for name, c := range packedCols(sg) { // and the 8 bytes get reads past the end
				slack[name] = [2]int{len(c.b) + 8, cap(c.b)}
			}
			checkWidths(t, sg)
			for name, lc := range slack {
				if lc[0] != lc[1] {
					t.Errorf("%s: segment %d's %s column has length %d, capacity %d", stage, sg.id, name, lc[0], lc[1])
				}
			}
		}
		if len(segs) == 0 {
			t.Fatalf("%s: nothing sealed", stage)
		}
	}
	compact := func(stage string, between func()) {
		t.Helper()
		testHookBetweenPasses = between
		defer func() { testHookBetweenPasses = nil }()
		if _, err := cs.CompactOnce(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	bucket := func(minute int) int64 { return csNow.Add(time.Duration(minute) * time.Minute).UnixNano() }

	add(-30, 21, "a")
	add(-29, 5, "b")
	compact("exact counts", nil)
	check("exact counts", map[int64]int{bucket(-30): 21, bucket(-29): 5})

	add(-20, 13, "c")
	add(-19, 9, "d")
	compact("a row deleted between the passes", func() {
		if n := src.DeleteUser("c1", nil); n != 4 {
			t.Fatalf("deleted %d rows of c1, want 4", n)
		}
	})
	check("a row deleted between the passes", map[int64]int{bucket(-20): 9, bucket(-19): 9})

	add(-10, 7, "e")
	compact("a late row between the passes", func() { add(-10, 1, "late") })
	check("a late row between the passes", map[int64]int{bucket(-10): 8})

	// A count that goes stale across a width: 260 rows counted, the last
	// 10 deleted between the passes, so the seqs span less than 256.
	for i := range 260 {
		user := "g"
		if i >= 250 {
			user = "h"
		}
		if _, err := src.Append(obsAt("ap-1", "s1", user, sensor.ObsWiFiConnect,
			csNow.Add(-5*time.Minute+time.Duration(i)*100*time.Millisecond), 1)); err != nil {
			t.Fatal(err)
		}
	}
	compact("a count stale across a width", func() { src.DeleteUser("h", nil) })
	check("a count stale across a width", map[int64]int{bucket(-5): 250})

	// Erasing a sealed subject rewrites the segments it touches.
	src.DeleteUser("a2", nil)
	compact("rewritten", nil)
	check("rewritten", map[int64]int{bucket(-30): 14})
}

// TestInterleavedBucketsSealAtTheirNarrowest: rows dealt round-robin to
// three closed buckets, so each builder of the pass takes back values
// the others took in between and adds them to its dictionaries again —
// a subject five times over, a reading as often. Every segment still
// holds each value once, at the narrowest widths, and encodes to the
// bytes the parent's builder lays out for its rows.
func TestInterleavedBucketsSealAtTheirNarrowest(t *testing.T) {
	src, cs := newPair(t, "")
	bySeq := map[uint64]sensor.Observation{}
	for i := range 3000 {
		bucket, k := i%3, i/3
		o := obsAt(fmt.Sprintf("ap-%d", k%40), fmt.Sprintf("s%d", k%9), fmt.Sprintf("u%03d", k%200), sensor.ObsWiFiConnect,
			csNow.Add(time.Duration(bucket-10)*time.Minute+time.Duration(k)*10*time.Millisecond), float64(k%5))
		if k%4 == 0 {
			o.Payload = map[string]string{"event": "assoc"}
		}
		got, err := src.Append(o)
		if err != nil {
			t.Fatal(err)
		}
		got.Time = got.Time.UTC()
		bySeq[got.Seq] = got
	}
	if n, err := cs.CompactOnce(); err != nil || n != 3000 {
		t.Fatalf("sealed %d rows (%v), want 3000", n, err)
	}
	if len(cs.segs) != 3 {
		t.Fatalf("%d segments, want 3", len(cs.segs))
	}
	for _, sg := range cs.segs {
		checkWidths(t, sg)
		if len(sg.users.dict) != 200 || len(sg.values.dict) != 5 {
			t.Errorf("segment %d: %d subjects and %d readings, want 200 and 5", sg.id, len(sg.users.dict), len(sg.values.dict))
		}
		rows := make([]sensor.Observation, sg.rows())
		for i := range rows {
			rows[i] = bySeq[sg.seq(i)]
		}
		want, err := new(parentBuilder).build(sg.id, sg.bucket, rows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sg.encode(), want.encode()) {
			t.Errorf("segment %d encodes differently from the parent's layout", sg.id)
		}
	}
}
