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
		idx := make([]uint32, len(col.idx))
		for i, p := range col.idx {
			np, ok := pos[p]
			if !ok {
				np = uint32(len(dict))
				pos[p] = np
				dict = append(dict, col.dict[p])
			}
			idx[i] = np
		}
		*col = dictCol{dict: dict, idx: idx}
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
	s.ScanCold(f, nil, func(o *sensor.Observation) bool {
		out = append(out, *o)
		return true
	})
	return out
}

// TestSegmentLayoutMatchesBruteForce: two hour segments of ~2 500 rows
// each — rows out of time order, 300 subjects, repeated and distinct
// payloads, seq tombstones, seq ranges interleaved — answer every
// filter shape exactly as a walk over the input rows does, through the
// tier's one reader, whether the segments came from the builder, from
// this build's encoding, or from the first-appearance encoding of
// earlier builds.
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
				dec, err := decodeSegment(sg.id, data)
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
	dec, err := decodeSegment(1, sg.encode())
	if err != nil {
		t.Fatal(err)
	}
	parent, err := decodeSegment(1, parentEncode(sg))
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
		sg, err := decodeSegment(0, data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if !bytes.Equal(parentEncode(sg), data) {
			t.Fatalf("%s: the first-appearance re-encoding differs from the file", file)
		}
	}
}
