package colstore

// This file is the columnar segment codec. A segment is one closed
// time bucket's observations, re-laid column-per-field: sequence
// numbers and timestamps as delta+varint streams (both nearly
// monotone, so deltas are tiny), the five identifier fields
// (sensor/space/user/kind/device-MAC) dictionary-coded (a bucket sees
// few distinct IDs, so each row is one small index), values as
// uvarint-packed IEEE-754 bits, and the rare payload maps inline. The
// dictionaries double as the segment's zone-map sets: membership
// checks let a reader skip a segment without touching a single row.
// A sealed segment is columnar in memory too: every column is a slice
// at its final length and a dictionary is searched, not hashed — the
// position map exists only in the segBuilder while a segment is laid
// out.
// A CRC-32 trailer makes torn or bit-rotted files detectable, and the
// decoder is fully bounds-checked — arbitrary bytes must produce an
// error, never a panic (see FuzzSegmentDecode).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/tippers/tippers/internal/obstore"
	"github.com/tippers/tippers/internal/sensor"
)

const (
	segMagic        = "TCS1"
	segCodecVersion = 1

	// Decode guards: a corrupt length prefix must fail fast instead of
	// asking the allocator for petabytes.
	maxSegmentRows  = 1 << 26
	maxDictEntries  = 1 << 22
	maxStringLen    = 1 << 20
	maxPayloadPairs = 1 << 12
)

var errCorrupt = errors.New("colstore: corrupt segment")

// segment is one immutable columnar run of observations from a single
// closed time bucket, sorted by ascending seq.
type segment struct {
	id     uint64
	bucket time.Time // bucket start (UTC)
	bytes  int64     // encoded size

	// Zone maps.
	minSeq, maxSeq   uint64
	minTime, maxTime int64 // unix nanos

	// Columns, one entry per row.
	seqs  []uint64
	times []int64 // unix nanos

	sensors dictCol
	spaces  dictCol
	users   dictCol
	kinds   dictCol
	macs    dictCol

	values []float64
	// payloads holds one entry per row (nil when the row had none), or
	// is nil altogether when no row of the segment carries a payload.
	payloads []map[string]string
}

func (sg *segment) rows() int { return len(sg.seqs) }

func (sg *segment) payload(i int) map[string]string {
	if sg.payloads == nil {
		return nil
	}
	return sg.payloads[i]
}

// holds reports whether one of the segment's rows has this seq.
func (sg *segment) holds(seq uint64) bool {
	if seq < sg.minSeq || seq > sg.maxSeq {
		return false
	}
	_, ok := slices.BinarySearch(sg.seqs, seq)
	return ok
}

// row materializes row i back into the store's observation shape.
// Times come back UTC-normalized, exactly as the WAL recovery path
// restores them.
func (sg *segment) row(i int) sensor.Observation {
	return sensor.Observation{
		Seq:       sg.seqs[i],
		SensorID:  sg.sensors.at(i),
		Kind:      sensor.ObservationKind(sg.kinds.at(i)),
		Time:      time.Unix(0, sg.times[i]).UTC(),
		SpaceID:   sg.spaces.at(i),
		DeviceMAC: sg.macs.at(i),
		UserID:    sg.users.at(i),
		Value:     sg.values[i],
		Payload:   sg.payload(i),
	}
}

// disjoint reports whether the filter cannot match any row of this
// segment, judged purely from zone maps (seq/time ranges plus
// dictionary membership). Conservative: false means "must scan", and
// scanning is always correct.
func (sg *segment) disjoint(f obstore.Filter, spaceSet map[string]bool) bool {
	if f.AfterSeq >= sg.maxSeq {
		return true
	}
	if !f.From.IsZero() && f.From.UnixNano() > sg.maxTime {
		return true
	}
	if !f.To.IsZero() && f.To.UnixNano() <= sg.minTime {
		return true
	}
	if f.SensorID != "" && !sg.sensors.has(f.SensorID) {
		return true
	}
	if f.UserID != "" && !sg.users.has(f.UserID) {
		return true
	}
	if f.DeviceMAC != "" && !sg.macs.has(f.DeviceMAC) {
		return true
	}
	if f.Kind != "" && !sg.kinds.has(string(f.Kind)) {
		return true
	}
	if spaceSet != nil {
		hit := false
		for _, s := range sg.spaces.dict {
			if spaceSet[s] {
				hit = true
				break
			}
		}
		if !hit {
			return true
		}
	}
	return false
}

// dictCol is one dictionary-coded string column: the distinct values
// in first-appearance order plus a per-row index stream. A bucket sees
// tens of distinct values per column, so lookups search dict linearly;
// a hash map per column per segment cost more memory than the column.
// Most lookups are zone-map probes for a value the segment does not
// hold, and sig answers those without the search: one bit per value,
// set at the value's hash, so a clear bit proves absence. With more
// values than bits it fills up and every probe falls through to the
// search — slower, never wrong.
type dictCol struct {
	dict []string
	idx  []uint32
	sig  [4]uint64
}

// sigBit maps a value to its bit of the signature (FNV-1a).
func sigBit(s string) (word int, mask uint64) {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return int(h>>6) & 3, 1 << (h & 63)
}

// sign computes the signature once dict is final.
func (c *dictCol) sign() {
	for _, s := range c.dict {
		w, m := sigBit(s)
		c.sig[w] |= m
	}
}

func (c *dictCol) at(i int) string { return c.dict[c.idx[i]] }

// find returns s's dictionary position, or -1 when the value never
// occurs in this segment.
func (c *dictCol) find(s string) int {
	if w, m := sigBit(s); c.sig[w]&m == 0 {
		return -1
	}
	return slices.Index(c.dict, s)
}

func (c *dictCol) has(s string) bool { return c.find(s) >= 0 }

// want resolves a filter's string predicate to the dictionary
// position a row's index must equal: -1 when the predicate is unset,
// -2 (matching no row) when the value never occurs in this segment.
func (c *dictCol) want(s string) int {
	if s == "" {
		return -1
	}
	if pos := c.find(s); pos >= 0 {
		return pos
	}
	return -2
}

// segBuilder lays rows out as segments. Its dictionary scratch — the
// value -> position map and the value list — is reused for every column
// of every segment a compaction pass builds.
type segBuilder struct {
	pos  map[string]uint32
	dict []string
}

// column dictionary-codes one field of rows.
func (b *segBuilder) column(rows []sensor.Observation, field func(*sensor.Observation) string) dictCol {
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
	c := dictCol{dict: make([]string, len(b.dict)), idx: idx}
	copy(c.dict, b.dict)
	c.sign()
	return c
}

// buildSegment lays out rows with a builder of its own.
func buildSegment(id uint64, bucket time.Time, rows []sensor.Observation) (*segment, error) {
	return new(segBuilder).build(id, bucket, rows)
}

// build lays out rows (ascending seq, all in one bucket) as a segment,
// every column allocated at its final length. The caller owns ordering;
// build only asserts it.
func (b *segBuilder) build(id uint64, bucket time.Time, rows []sensor.Observation) (*segment, error) {
	if len(rows) == 0 {
		return nil, errors.New("colstore: empty segment")
	}
	sg := &segment{
		id:      id,
		bucket:  bucket.UTC(),
		minTime: math.MaxInt64,
		maxTime: math.MinInt64,
		seqs:    make([]uint64, len(rows)),
		times:   make([]int64, len(rows)),
		values:  make([]float64, len(rows)),
	}
	for i := range rows {
		o := &rows[i]
		if i > 0 && o.Seq <= rows[i-1].Seq {
			return nil, fmt.Errorf("colstore: segment rows out of seq order (%d after %d)", o.Seq, rows[i-1].Seq)
		}
		sg.seqs[i] = o.Seq
		ns := o.Time.UnixNano()
		sg.times[i] = ns
		sg.minTime = min(sg.minTime, ns)
		sg.maxTime = max(sg.maxTime, ns)
		sg.values[i] = o.Value
		if len(o.Payload) > 0 {
			if sg.payloads == nil {
				sg.payloads = make([]map[string]string, len(rows))
			}
			sg.payloads[i] = maps.Clone(o.Payload)
		}
	}
	sg.sensors = b.column(rows, func(o *sensor.Observation) string { return o.SensorID })
	sg.spaces = b.column(rows, func(o *sensor.Observation) string { return o.SpaceID })
	sg.users = b.column(rows, func(o *sensor.Observation) string { return o.UserID })
	sg.kinds = b.column(rows, func(o *sensor.Observation) string { return string(o.Kind) })
	sg.macs = b.column(rows, func(o *sensor.Observation) string { return o.DeviceMAC })
	sg.minSeq = sg.seqs[0]
	sg.maxSeq = sg.seqs[len(sg.seqs)-1]
	return sg, nil
}

// encode serializes the segment. Layout (all integers varint/uvarint):
//
//	magic "TCS1" | version | rowCount | bucketStartNano
//	seq column:   first, then strictly positive deltas
//	time column:  first, then signed deltas
//	5 dict columns: dictLen, dict strings, then rowCount indexes
//	value column: rowCount uvarint(Float64bits)
//	payload column: per row pairCount + key/value strings
//	crc32-IEEE of everything above, 4 bytes little-endian
func (sg *segment) encode() []byte {
	buf := make([]byte, 0, 64+len(sg.seqs)*8)
	buf = append(buf, segMagic...)
	buf = binary.AppendUvarint(buf, segCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(len(sg.seqs)))
	buf = binary.AppendVarint(buf, sg.bucket.UnixNano())

	buf = binary.AppendUvarint(buf, sg.seqs[0])
	for i := 1; i < len(sg.seqs); i++ {
		buf = binary.AppendUvarint(buf, sg.seqs[i]-sg.seqs[i-1])
	}
	buf = binary.AppendVarint(buf, sg.times[0])
	for i := 1; i < len(sg.times); i++ {
		buf = binary.AppendVarint(buf, sg.times[i]-sg.times[i-1])
	}
	for _, col := range []*dictCol{&sg.sensors, &sg.spaces, &sg.users, &sg.kinds, &sg.macs} {
		buf = binary.AppendUvarint(buf, uint64(len(col.dict)))
		for _, s := range col.dict {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		for _, ix := range col.idx {
			buf = binary.AppendUvarint(buf, uint64(ix))
		}
	}
	for _, v := range sg.values {
		buf = binary.AppendUvarint(buf, math.Float64bits(v))
	}
	for i := range sg.seqs {
		p := sg.payload(i)
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		if len(p) == 0 {
			continue
		}
		keys := make([]string, 0, len(p))
		for k := range p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			buf = append(buf, k...)
			buf = binary.AppendUvarint(buf, uint64(len(p[k])))
			buf = append(buf, p[k]...)
		}
	}
	sum := crc32.ChecksumIEEE(buf)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	return append(buf, tail[:]...)
}

// segReader is a bounds-checked cursor over an untrusted byte slice.
// The first malformed read poisons it; callers check err once at the
// end of a decode phase.
type segReader struct {
	b   []byte
	off int
	err error
}

func (r *segReader) fail() {
	if r.err == nil {
		r.err = errCorrupt
	}
}

func (r *segReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *segReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *segReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxStringLen || r.off+int(n) > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// decodeSegment parses one encoded segment. It must be total: any
// input either yields a structurally valid segment or an error.
func decodeSegment(id uint64, data []byte) (*segment, error) {
	if len(data) < len(segMagic)+4 {
		return nil, errCorrupt
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("colstore: segment checksum mismatch")
	}
	if string(body[:len(segMagic)]) != segMagic {
		return nil, errCorrupt
	}
	r := &segReader{b: body, off: len(segMagic)}
	if v := r.uvarint(); v != segCodecVersion {
		if r.err == nil {
			r.err = fmt.Errorf("colstore: unsupported segment version %d", v)
		}
		return nil, r.err
	}
	n := r.uvarint()
	if r.err != nil || n == 0 || n > maxSegmentRows {
		r.fail()
		return nil, r.err
	}
	rows := int(n)
	sg := &segment{
		id:      id,
		bytes:   int64(len(data)),
		minTime: math.MaxInt64,
		maxTime: math.MinInt64,
	}
	sg.bucket = time.Unix(0, r.varint()).UTC()

	sg.seqs = make([]uint64, rows)
	sg.seqs[0] = r.uvarint()
	for i := 1; i < rows; i++ {
		d := r.uvarint()
		if d == 0 {
			r.fail()
		}
		sg.seqs[i] = sg.seqs[i-1] + d
		if sg.seqs[i] < sg.seqs[i-1] { // overflow
			r.fail()
		}
	}
	sg.times = make([]int64, rows)
	sg.times[0] = r.varint()
	for i := 1; i < rows; i++ {
		sg.times[i] = sg.times[i-1] + r.varint()
	}
	if r.err != nil {
		return nil, r.err
	}
	for _, col := range []*dictCol{&sg.sensors, &sg.spaces, &sg.users, &sg.kinds, &sg.macs} {
		dn := r.uvarint()
		if r.err != nil || dn == 0 || dn > maxDictEntries {
			r.fail()
			return nil, r.err
		}
		col.dict = make([]string, int(dn))
		for i := range col.dict {
			col.dict[i] = r.str()
		}
		col.sign()
		col.idx = make([]uint32, rows)
		for i := 0; i < rows; i++ {
			ix := r.uvarint()
			if ix >= dn {
				r.fail()
				return nil, r.err
			}
			col.idx[i] = uint32(ix)
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	sg.values = make([]float64, rows)
	for i := 0; i < rows; i++ {
		sg.values[i] = math.Float64frombits(r.uvarint())
	}
	for i := 0; i < rows; i++ {
		pn := r.uvarint()
		if r.err != nil || pn > maxPayloadPairs {
			r.fail()
			return nil, r.err
		}
		if pn == 0 {
			continue
		}
		if sg.payloads == nil {
			sg.payloads = make([]map[string]string, rows)
		}
		p := make(map[string]string, int(pn))
		for j := uint64(0); j < pn; j++ {
			k := r.str()
			v := r.str()
			if r.err != nil {
				return nil, r.err
			}
			p[k] = v
		}
		sg.payloads[i] = p
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, errCorrupt
	}
	sg.minSeq = sg.seqs[0]
	sg.maxSeq = sg.seqs[rows-1]
	for _, ns := range sg.times {
		if ns < sg.minTime {
			sg.minTime = ns
		}
		if ns > sg.maxTime {
			sg.maxTime = ns
		}
	}
	return sg, nil
}

// segCursor walks the rows of one segment that match a filter, in
// ascending seq, testing the columns directly. The filter's string
// predicates are resolved to dictionary positions once, when the
// cursor opens, so the per-row test is integer compares and no row is
// materialized until it has matched. Semantics mirror obstore's filter
// exactly (From inclusive, To exclusive) so a segment scan and a store
// scan agree row for row.
type segCursor struct {
	sg *segment
	i  int // current row; a match once advance has returned true

	from, to time.Time
	// Dictionary position each column must equal: -1 leaves the column
	// unconstrained, -2 (value absent from the segment) matches no row.
	sensor, user, mac, kind int
	spaceOK                 []bool // by spaces position; nil = unconstrained
	seqTomb                 map[uint64]struct{}
}

func openCursor(sg *segment, f obstore.Filter, spaceSet map[string]bool, seqTomb map[uint64]struct{}) segCursor {
	c := segCursor{
		sg:      sg,
		i:       sort.Search(len(sg.seqs), func(i int) bool { return sg.seqs[i] > f.AfterSeq }),
		from:    f.From,
		to:      f.To,
		sensor:  sg.sensors.want(f.SensorID),
		user:    sg.users.want(f.UserID),
		mac:     sg.macs.want(f.DeviceMAC),
		kind:    sg.kinds.want(string(f.Kind)),
		seqTomb: seqTomb,
	}
	if spaceSet != nil {
		c.spaceOK = make([]bool, len(sg.spaces.dict))
		for pos, id := range sg.spaces.dict {
			c.spaceOK[pos] = spaceSet[id]
		}
	}
	return c
}

// seq is the current row's sequence number.
func (c *segCursor) seq() uint64 { return c.sg.seqs[c.i] }

// advance moves to the first matching row at or after i; false means
// the segment is exhausted.
func (c *segCursor) advance() bool {
	sg := c.sg
	for ; c.i < len(sg.seqs); c.i++ {
		i := c.i
		if c.sensor != -1 && int(sg.sensors.idx[i]) != c.sensor ||
			c.user != -1 && int(sg.users.idx[i]) != c.user ||
			c.mac != -1 && int(sg.macs.idx[i]) != c.mac ||
			c.kind != -1 && int(sg.kinds.idx[i]) != c.kind {
			continue
		}
		if c.spaceOK != nil && !c.spaceOK[sg.spaces.idx[i]] {
			continue
		}
		if t := time.Unix(0, sg.times[i]); !c.from.IsZero() && t.Before(c.from) || !c.to.IsZero() && !t.Before(c.to) {
			continue
		}
		if len(c.seqTomb) > 0 {
			if _, dead := c.seqTomb[sg.seqs[i]]; dead {
				continue
			}
		}
		return true
	}
	return false
}
