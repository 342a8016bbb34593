package colstore

// The in-memory layout of an hour-wide segment: sorted dictionaries,
// per-subject postings and shared payload maps are all derived, never
// stored, so each is held here to a brute-force
// walk over the rows the segment was built from — for segments fresh
// from the builder, decoded from this build's encoding, and decoded
// from the encoding earlier builds wrote (dictionaries in
// first-appearance order).

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

// parentEncode encodes sg as builds before sorted dictionaries did:
// every dictionary in the order its values first appear in the rows.
func parentEncode(sg *segment) []byte {
	cp := *sg
	for _, col := range []*dictCol{&cp.sensors, &cp.spaces, &cp.users, &cp.kinds, &cp.macs} {
		pos := make(map[uint32]uint32)
		var dict []string
		idx := make([]uint32, col.idx.n)
		for i := range idx {
			p := uint32(col.idx.get(i))
			np, ok := pos[p]
			if !ok {
				np = uint32(len(dict))
				pos[p] = np
				dict = append(dict, col.dict[p])
			}
			idx[i] = np
		}
		*col = dictCol{dict: dict, idx: wide(idx)}
	}
	return cp.encode()
}

var layoutPayloads = []map[string]string{
	{"event": "assoc"},
	{"event": "disassoc"},
	{"event": "assoc", "rssi": "-40"},
}

// layoutRows returns n rows in ascending seq (with gaps) over hundreds
// of subjects, observed within the hour at base: times drift forward
// with jitter, and one row in two hundred lands anywhere in the hour, so
// rows are out of time order both locally and across the hour.
func layoutRows(rng *rand.Rand, base time.Time, n int) []sensor.Observation {
	rows := make([]sensor.Observation, n)
	seq := uint64(0)
	for i := range rows {
		seq += 1 + uint64(rng.Intn(3))
		at := base.Add(time.Duration(i) * time.Hour / time.Duration(n)).Add(time.Duration(rng.Intn(240)-120) * time.Second)
		if rng.Intn(200) == 0 {
			at = base.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		}
		if at.Before(base) || !at.Before(base.Add(time.Hour)) {
			at = base.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		}
		o := sensor.Observation{
			Seq: seq, SensorID: fmt.Sprintf("ap-%02d", rng.Intn(40)),
			Kind:    []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsBLESighting, sensor.ObsPowerReading}[rng.Intn(3)],
			Time:    at.UTC(),
			SpaceID: fmt.Sprintf("room-%02d", rng.Intn(30)),
			Value:   float64(rng.Intn(1000)) / 4,
		}
		if rng.Intn(8) != 0 {
			o.UserID = fmt.Sprintf("u%03d", rng.Intn(300))
		}
		if rng.Intn(10) == 0 {
			o.DeviceMAC = fmt.Sprintf("aa:%02x", rng.Intn(16))
		}
		switch r := rng.Intn(10); {
		case r < 5:
			o.Payload = maps.Clone(layoutPayloads[rng.Intn(len(layoutPayloads))])
		case r < 6:
			o.Payload = map[string]string{"n": fmt.Sprint(i)}
		}
		rows[i] = o
	}
	return rows
}

// widthEdge is a segment's rows laid out so that one packed column sits
// at a width boundary: col must come out at width bytes, or be absent
// for width -1.
type widthEdge struct {
	name   string
	bucket time.Time
	rows   []sensor.Observation
	col    string
	width  int
}

// widthEdges returns the segments at every width boundary: dictionaries
// of 256 and 257 entries; seq spans of 2¹⁶−1, 2¹⁶ and past 2³² (the
// gaps an erasure rewrite leaves); times aligned to the s, ms, µs and
// ns, an hour before 1970, and a decade apart; values too distinct to code; no payload
// at all, and 300 distinct ones. Each is layoutRows' hour at bucket,
// with one field redrawn.
func widthEdges(bucket time.Time) []widthEdge {
	var edges []widthEdge
	edge := func(name string, n int, col string, width int, at time.Time, redraw func(i int, o *sensor.Observation)) {
		rows := layoutRows(rand.New(rand.NewSource(int64(len(edges)))), at, n)
		for i := range rows {
			redraw(i, &rows[i])
		}
		edges = append(edges, widthEdge{name, at, rows, col, width})
	}
	sensors := func(d int) func(int, *sensor.Observation) {
		return func(i int, o *sensor.Observation) { o.SensorID = fmt.Sprintf("ap-%02d", (i*7)%d) }
	}
	edge("256 sensors", 600, "dictionary 0", 1, bucket, sensors(256))
	edge("257 sensors", 600, "dictionary 0", 2, bucket, sensors(257))
	span := func(last uint64) func(int, *sensor.Observation) {
		return func(i int, o *sensor.Observation) {
			if o.Seq = 1000 + uint64(i); i == 199 {
				o.Seq = 1000 + last
			}
		}
	}
	edge("seq span 2^16-1", 200, "seqs", 2, bucket, span(1<<16-1))
	edge("seq span 2^16", 200, "seqs", 4, bucket, span(1<<16))
	edge("seq span past 2^32", 200, "seqs", 8, bucket, span(1<<32+77))
	align := func(unit time.Duration) func(int, *sensor.Observation) {
		return func(i int, o *sensor.Observation) {
			o.Time = bucket.Add((o.Time.Sub(bucket) / time.Second * time.Second) + time.Duration(i%3)*unit)
		}
	}
	edge("times in s", 300, "times", 2, bucket, align(time.Second))
	edge("times in ms", 300, "times", 4, bucket, align(time.Millisecond))
	edge("times in µs", 300, "times", 4, bucket, align(time.Microsecond))
	edge("times in ns", 300, "times", 8, bucket, align(1))
	edge("before 1970", 300, "times", 4, time.Date(1969, 7, 20, 20, 0, 0, 0, time.UTC),
		func(i int, o *sensor.Observation) { o.Time = o.Time.Truncate(time.Millisecond) })
	edge("times a decade apart", 300, "times", 8, bucket, func(i int, o *sensor.Observation) {
		o.Time = o.Time.AddDate(-5, 0, 0).Add(time.Duration(i)) // below the bucket: the builder rebases
		if i%2 == 1 {
			o.Time = o.Time.AddDate(10, 0, 0)
		}
	})
	edge("distinct values", 300, "value ids", -1, bucket, func(i int, o *sensor.Observation) { o.Value = float64(i) + 0.5 })
	edge("no payload", 300, "payload ids", 0, bucket, func(i int, o *sensor.Observation) { o.Payload = nil })
	edge("300 payloads", 300, "payload ids", 2, bucket,
		func(i int, o *sensor.Observation) { o.Payload = map[string]string{"n": fmt.Sprint(i)} })
	return edges
}

// layoutFilter draws one of the filter shapes a segment is read with —
// subject only, subject in a window, a window only, a sensor, a space
// set — plus, on any shape, a kind, an AfterSeq cursor or a Limit.
func layoutFilter(rng *rand.Rand, base time.Time, maxSeq uint64) obstore.Filter {
	var f obstore.Filter
	window := func() {
		f.From = base.Add(time.Duration(rng.Intn(60)) * time.Minute)
		f.To = f.From.Add(time.Duration(1+rng.Intn(20)) * time.Minute)
		if rng.Intn(4) == 0 {
			f.From = time.Time{}
		} else if rng.Intn(4) == 0 {
			f.To = time.Time{}
		}
	}
	subject := func() string {
		if rng.Intn(20) == 0 {
			return "nobody"
		}
		return fmt.Sprintf("u%03d", rng.Intn(300))
	}
	switch rng.Intn(5) {
	case 0:
		f.UserID = subject()
	case 1:
		f.UserID = subject()
		window()
	case 2:
		window()
	case 3:
		f.SensorID = fmt.Sprintf("ap-%02d", rng.Intn(41)) // ap-40 exists nowhere
	case 4:
		for range 1 + rng.Intn(4) {
			f.SpaceIDs = append(f.SpaceIDs, fmt.Sprintf("room-%02d", rng.Intn(32)))
		}
	}
	if rng.Intn(4) == 0 {
		f.Kind = []sensor.ObservationKind{sensor.ObsWiFiConnect, sensor.ObsPowerReading}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		f.AfterSeq = uint64(rng.Int63n(int64(maxSeq)))
	}
	if rng.Intn(3) == 0 {
		f.Limit = 1 + rng.Intn(50)
	}
	return f
}

// bruteForce is the reference: every input row, in seq order, tested
// field by field.
func bruteForce(rows []sensor.Observation, f obstore.Filter, tomb map[uint64]struct{}) []sensor.Observation {
	spaceSet := spaceSetFor(f)
	var out []sensor.Observation
	for _, o := range rows {
		if _, dead := tomb[o.Seq]; dead || !oracleRowMatches(o, f, spaceSet) {
			continue
		}
		if out = append(out, o); f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}

// tierOver installs segs as a memory tier's whole segment set, with
// tomb as its tombstones and the watermark past every row.
func tierOver(segs []*segment, tomb map[uint64]struct{}) *Store {
	s := &Store{seqTomb: tomb}
	for _, sg := range segs {
		s.wm = max(s.wm, sg.maxSeq)
	}
	slices.SortFunc(segs, func(a, b *segment) int { return cmp.Compare(a.minSeq, b.minSeq) })
	s.installSegsLocked(segs)
	return s
}

func visitCold(s *Store, f obstore.Filter) []sensor.Observation {
	var out []sensor.Observation
	s.ScanCold(f, nil, func(o *sensor.Observation, _ obstore.Codes) bool {
		out = append(out, *o)
		return true
	})
	return out
}

// TestSegmentLayoutMatchesBruteForce: two hour segments of ~2 500 rows
// each — rows out of time order, 300 subjects, repeated and distinct
// payloads, seq tombstones, seq ranges interleaved — and one segment at
// each packed width boundary (widthEdges) answer every filter shape
// exactly as a walk over the input rows does, through the tier's one
// reader, whether the segments came from the builder, from this build's
// encoding, or from the first-appearance encoding of earlier builds;
// every packed column is at its narrowest width.
func TestSegmentLayoutMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := csNow.Add(-3 * time.Hour).Truncate(time.Hour)
		all := layoutRows(rng, base, 5000)
		// Two buckets: every row drawn into the second hour moves there,
		// so the two segments' seq ranges interleave.
		var buckets [2][]sensor.Observation
		for i := range all {
			b := rng.Intn(2)
			all[i].Time = all[i].Time.Add(time.Duration(b) * time.Hour)
			buckets[b] = append(buckets[b], all[i])
		}
		tomb := make(map[uint64]struct{})
		for _, o := range all {
			if rng.Intn(20) == 0 {
				tomb[o.Seq] = struct{}{}
			}
		}
		var built []*segment
		for b, rows := range buckets {
			sg, err := buildSegment(uint64(b), base.Add(time.Duration(b)*time.Hour), rows)
			if err != nil {
				t.Fatal(err)
			}
			built = append(built, sg)
		}

		paths := map[string][]*segment{"built": built}
		for _, name := range []string{"decoded", "parent-decoded"} {
			for _, sg := range built {
				data := sg.encode()
				if name == "parent-decoded" {
					if data = parentEncode(sg); bytes.Equal(data, sg.encode()) {
						t.Fatal("precondition: the first-appearance encoding equals the sorted one")
					}
				}
				dec, err := decodeSegment(sg.id, data, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				dec.bucket = sg.bucket
				paths[name] = append(paths[name], dec)
			}
		}
		for name, segs := range paths {
			for _, sg := range segs {
				checkIndexes(t, sg)
			}
			s := tierOver(segs, tomb)
			for trial := 0; trial < 400; trial++ {
				f := layoutFilter(rng, base, all[len(all)-1].Seq)
				want := bruteForce(all, f, tomb)
				if got := visitCold(s, f); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s segments, filter %+v: visited %d rows, the walk over the input finds %d", seed, name, f, len(got), len(want))
				}
			}
		}
	}

	// One segment at each width boundary, through the same three paths.
	rng := rand.New(rand.NewSource(4))
	for _, e := range widthEdges(csNow.Add(-3 * time.Hour).Truncate(time.Hour)) {
		built, err := buildSegment(1, e.bucket, e.rows)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		for name, data := range map[string][]byte{"built": nil, "decoded": built.encode(), "parent-decoded": parentEncode(built)} {
			sg := built
			if data != nil {
				if sg, err = decodeSegment(1, data, nil); err != nil {
					t.Fatalf("%s, %s: %v", e.name, name, err)
				}
			}
			checkIndexes(t, sg)
			w := -1
			if c, ok := packedCols(sg)[e.col]; ok {
				w = c.width
			}
			if w != e.width {
				t.Fatalf("%s, %s: %s at width %d, want %d", e.name, name, e.col, w, e.width)
			}
			s := tierOver([]*segment{sg}, nil)
			for trial := 0; trial < 100; trial++ {
				f := layoutFilter(rng, e.bucket, e.rows[len(e.rows)-1].Seq)
				want := bruteForce(e.rows, f, nil)
				if got := visitCold(s, f); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %s segment, filter %+v: visited %d rows, the walk over the input finds %d", e.name, name, f, len(got), len(want))
				}
			}
		}
	}
}

// TestTimeRangeSpansTheWholeClock: a segment whose rows lie more than
// 2⁶³ ns apart — one in 1677, one in 2262 — has a span int64 cannot
// hold. The span saturates, and so does the search's start, so a read
// from 2026 still visits the segment and returns its 2262 row, as the
// walk over the input rows does.
func TestTimeRangeSpansTheWholeClock(t *testing.T) {
	early, late := time.Unix(0, math.MinInt64+1).UTC(), time.Unix(0, math.MaxInt64-1).UTC()
	rows := []sensor.Observation{
		{Seq: 1, SensorID: "ap-00", Kind: sensor.ObsWiFiConnect, Time: early, UserID: "u000"},
		{Seq: 2, SensorID: "ap-00", Kind: sensor.ObsWiFiConnect, Time: late, UserID: "u000"},
	}
	sg, err := buildSegment(1, early.Truncate(time.Hour), rows)
	if err != nil {
		t.Fatal(err)
	}
	s := tierOver([]*segment{sg}, nil)
	f := obstore.Filter{From: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	got, want := visitCold(s, f), bruteForce(rows, f, nil)
	if len(want) != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("a read from 2026 returned %d rows %v, want the 2262 row %v", len(got), got, want)
	}
}

// TestSegmentSharesEqualPayloads: inside one segment, rows whose
// payloads are equal hold one map and rows whose payloads differ hold
// different ones, after the build and after either decode; every row's
// payload still equals its input, and none is the input's own map.
func TestSegmentSharesEqualPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := csNow.Add(-2 * time.Hour).Truncate(time.Hour)
	rows := layoutRows(rng, base, 2000)
	sg, err := buildSegment(1, base, rows)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeSegment(1, sg.encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := decodeSegment(1, parentEncode(sg), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, sg := range map[string]*segment{"built": sg, "decoded": dec, "parent-decoded": parent} {
		byContent := map[string]map[string]string{}
		contents := 0
		for i, in := range rows {
			got := sg.payload(i)
			if !reflect.DeepEqual(got, in.Payload) {
				t.Fatalf("%s: row %d payload %v, input %v", name, i, got, in.Payload)
			}
			if got == nil {
				continue
			}
			if same(got, in.Payload) {
				t.Fatalf("%s: row %d holds the input's own map", name, i)
			}
			key := string(appendPayload(nil, got))
			first, seen := byContent[key]
			switch {
			case !seen:
				byContent[key] = got
				contents++
			case !same(first, got):
				t.Fatalf("%s: row %d's payload %v is a second copy", name, i, got)
			}
		}
		// Distinct contents are distinct maps: as many maps as contents.
		distinct := map[uintptr]bool{}
		for _, m := range sg.payloads {
			if m != nil {
				distinct[reflect.ValueOf(m).Pointer()] = true
			}
		}
		if len(distinct) != contents || contents <= len(layoutPayloads) {
			t.Fatalf("%s: %d maps for %d distinct payloads", name, len(distinct), contents)
		}
	}
}

func same(a, b map[string]string) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestParentSegmentsReencodeByteForByte: the segment files an earlier
// build wrote decode, and re-laid in first-appearance order encode to
// the very bytes on disk — nothing the decoder normalises is lost.
func TestParentSegmentsReencodeByteForByte(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "parent-tier", "seg-*.col"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no parent segments (%v)", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := decodeSegment(0, data, nil)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !bytes.Equal(parentEncode(sg), data) {
			t.Fatalf("%s: the first-appearance re-encoding differs from the file", file)
		}
	}
}
