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
	return [][]byte{one, build(many).encode(), wide.encode(), parentEncode(wide), []byte(segMagic), nil}
}

func FuzzSegmentDecode(f *testing.F) {
	for _, seed := range fuzzSeedSegments() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sg, err := decodeSegment(1, data)
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
		if sg.minSeq != sg.seqs[0] || sg.maxSeq != sg.seqs[n-1] {
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
// rows in ascending order, the time zone map the bounds of its rows.
func checkIndexes(t *testing.T, sg *segment) {
	t.Helper()
	for _, col := range []*dictCol{&sg.sensors, &sg.spaces, &sg.users, &sg.kinds, &sg.macs} {
		if !ascending(col.dict) {
			t.Fatalf("dictionary not strictly ascending: %q", col.dict)
		}
	}
	listed := 0
	for u, id := range sg.users.dict {
		post := sg.userRows[sg.userOff[u]:sg.userOff[u+1]]
		listed += len(post)
		for k, i := range post {
			if k > 0 && i <= post[k-1] || id == "" || sg.users.at(int(i)) != id {
				t.Fatalf("postings of %q: %v", id, post)
			}
		}
	}
	anonymous := 0
	for i := range sg.seqs {
		if sg.users.at(i) == "" {
			anonymous++
		}
	}
	if listed != len(sg.userRows) || listed+anonymous != sg.rows() {
		t.Fatalf("postings list %d of %d rows, %d without a subject", listed, sg.rows(), anonymous)
	}
	lo, hi := sg.times[0], sg.times[0]
	for _, ns := range sg.times {
		lo, hi = min(lo, ns), max(hi, ns)
	}
	if sg.minTime != lo || sg.maxTime != hi {
		t.Fatalf("zone map time bounds [%d, %d], rows span [%d, %d]", sg.minTime, sg.maxTime, lo, hi)
	}
}
