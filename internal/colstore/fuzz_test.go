package colstore

// FuzzSegmentDecode: the segment decoder must be total — arbitrary
// bytes either decode into a structurally valid segment or return an
// error, never panic, never over-allocate, and a successful decode
// must re-encode to the identical bytes. The codec has two accepted
// forms, the one this build writes (dictionaries sorted) and the one
// earlier builds wrote (dictionaries in first-appearance order), and
// every accepted input is exactly one of them — which is what makes the
// CRC trailer meaningful.

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/tippers/tippers/internal/sensor"
)

func fuzzSeedSegments() [][]byte {
	base := time.Date(2026, 3, 14, 11, 0, 0, 0, time.UTC)
	build := func(rows []sensor.Observation) *segment {
		sg, err := buildSegment(1, base, rows)
		if err != nil {
			panic(err)
		}
		return sg
	}
	one := build([]sensor.Observation{{
		Seq: 1, SensorID: "ap-1", Kind: sensor.ObsWiFiConnect,
		Time: base.Add(time.Second), SpaceID: "s1", UserID: "u1", Value: 3.5,
	}}).encode()
	var many []sensor.Observation
	for i := 0; i < 64; i++ {
		o := sensor.Observation{
			Seq: uint64(10 + i*3), SensorID: "ap-2", Kind: sensor.ObsPowerReading,
			Time: base.Add(time.Duration(i) * 900 * time.Millisecond), SpaceID: "s2",
			Value: float64(i) * 0.25,
		}
		if i%5 == 0 {
			o.UserID = "u9"
			o.DeviceMAC = "de:ad:be:ef"
			o.Payload = map[string]string{"unit": "W"}
		}
		many = append(many, o)
	}
	// 150 rows out of time order, several subjects and repeated
	// payloads; written once sorted and once as earlier builds laid it
	// out.
	var rows []sensor.Observation
	for i := 0; i < 150; i++ {
		o := sensor.Observation{
			Seq: uint64(1 + i), SensorID: fmt.Sprintf("ap-%d", 9-i%7), Kind: sensor.ObsWiFiConnect,
			Time: base.Add(time.Duration((i*37)%150) * 20 * time.Second), SpaceID: fmt.Sprintf("s%d", 5-i%4),
			UserID: fmt.Sprintf("u%d", 20-i%13), Value: float64(i),
		}
		if i%3 != 0 {
			o.Payload = map[string]string{"event": []string{"assoc", "disassoc"}[i%2]}
		}
		rows = append(rows, o)
	}
	wide := build(rows)
	seeds := [][]byte{one, build(many).encode(), wide.encode(), parentEncode(wide), []byte(segMagic), nil}
	for _, e := range widthEdges(base) {
		sg, err := buildSegment(1, e.bucket, e.rows)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, sg.encode())
	}
	return seeds
}

func FuzzSegmentDecode(f *testing.F) {
	for _, seed := range fuzzSeedSegments() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sg, err := decodeSegment(1, data, nil)
		if err != nil {
			return
		}
		// A valid decode must be internally consistent and re-encode
		// canonically.
		n := sg.rows()
		if n == 0 {
			t.Fatal("decode produced an empty segment")
		}
		var prev uint64
		for i := 0; i < n; i++ {
			o := sg.row(i) // must not panic: every index in range
			if i > 0 && o.Seq <= prev {
				t.Fatalf("row %d out of seq order", i)
			}
			prev = o.Seq
		}
		if sg.minSeq != sg.seq(0) || sg.maxSeq != sg.seq(n-1) {
			t.Fatal("zone map seq bounds inconsistent")
		}
		checkIndexes(t, sg)
		if !bytes.Equal(sg.encode(), data) && !bytes.Equal(parentEncode(sg), data) {
			t.Fatal("accepted non-canonical encoding")
		}
	})
}

// checkIndexes holds a segment's derived indexes to its columns: the
// dictionaries strictly ascending, every subject's postings exactly its
// rows in ascending order, the time zone map the bounds of its rows,
// and every packed column at its narrowest width (checkWidths).
func checkIndexes(t *testing.T, sg *segment) {
	t.Helper()
	for _, col := range sg.cols() {
		if !ascending(col.dict) {
			t.Fatalf("dictionary not strictly ascending: %q", col.dict)
		}
	}
	listed := 0
	for u, id := range sg.users.dict {
		lo, hi := int(sg.userOff.get(u)), int(sg.userOff.get(u+1))
		listed += hi - lo
		for k := lo; k < hi; k++ {
			i := sg.userRows.get(k)
			if k > lo && i <= sg.userRows.get(k-1) || id == "" || sg.users.at(int(i)) != id {
				t.Fatalf("postings of %q: entries %d to %d", id, lo, hi)
			}
		}
	}
	anonymous := 0
	for i := range sg.rows() {
		if sg.users.at(i) == "" {
			anonymous++
		}
	}
	if listed != sg.userRows.n || listed+anonymous != sg.rows() {
		t.Fatalf("postings list %d of %d rows, %d without a subject", listed, sg.rows(), anonymous)
	}
	lo, hi := sg.time(0), sg.time(0)
	for i := range sg.rows() {
		lo, hi = min(lo, sg.time(i)), max(hi, sg.time(i))
	}
	if sg.minTime != lo || sg.maxTime != hi {
		t.Fatalf("zone map time bounds [%d, %d], rows span [%d, %d]", sg.minTime, sg.maxTime, lo, hi)
	}
	checkWidths(t, sg)
}

// packedCols names every packed column of sg.
func packedCols(sg *segment) map[string]*uints {
	cols := map[string]*uints{"seqs": &sg.seqs, "times": &sg.times, "payload ids": &sg.payloadIDs,
		"userOff": &sg.userOff, "userRows": &sg.userRows}
	for i, col := range sg.cols() {
		cols[fmt.Sprintf("dictionary %d", i)] = &col.idx
	}
	if sg.values.raw == nil {
		cols["value ids"] = &sg.values.ids
	}
	return cols
}

// checkWidths holds every packed column of sg to the narrowest width its
// layout allows, worked out here from the rows: seqs as offsets from
// the least; times as offsets from the earliest in the coarsest of s,
// ms, µs and ns dividing all of them; a dictionary's positions by its
// size; payload ids by the distinct payloads; postings by the largest
// row and count they hold. Values are dictionary-coded exactly when the
// dictionary is smaller than the raw values.
func checkWidths(t *testing.T, sg *segment) {
	t.Helper()
	n := sg.rows()
	step := uint64(time.Second)
	for i := range n {
		for uint64(sg.time(i)-sg.minTime)%step != 0 { // a span past 2⁶³ wraps in int64
			step /= 1000
		}
	}
	distinct := map[uint64]bool{}
	for i := range n {
		distinct[math.Float64bits(sg.values.at(i))] = true
	}
	if coded := sg.values.raw == nil; coded != (8*len(distinct)+n*widthOf(uint64(len(distinct)-1)) < 8*n) || coded && len(sg.values.dict) != len(distinct) {
		t.Fatalf("%d rows of %d distinct values: dictionary-coded %v, dictionary of %d", n, len(distinct), coded, len(sg.values.dict))
	}
	want := map[string]uint64{
		"seqs":        sg.maxSeq - sg.minSeq,
		"times":       uint64(sg.maxTime-sg.minTime) / step,
		"payload ids": uint64(len(sg.payloads)),
		"userOff":     uint64(sg.userRows.n),
		"value ids":   uint64(len(sg.values.dict) - 1),
	}
	for i, col := range sg.cols() {
		want[fmt.Sprintf("dictionary %d", i)] = uint64(len(col.dict) - 1)
	}
	for k := range sg.userRows.n {
		want["userRows"] = max(want["userRows"], sg.userRows.get(k))
	}
	for name, c := range packedCols(sg) {
		if len(c.b) != c.n*c.width {
			t.Fatalf("%s: %d entries in %d bytes at width %d", name, c.n, len(c.b), c.width)
		}
		if c.width != widthOf(want[name]) {
			t.Fatalf("%s: width %d, its largest offset %d needs %d", name, c.width, want[name], widthOf(want[name]))
		}
	}
}
