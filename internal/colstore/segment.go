package colstore

// This file is the columnar segment codec. A segment is one closed
// time bucket's observations, re-laid column-per-field: sequence
// numbers and timestamps as delta+varint streams (both nearly
// monotone, so deltas are tiny), the five identifier fields
// (sensor/space/user/kind/device-MAC) dictionary-coded (a bucket sees
// few distinct IDs, so each row is one small index), values as
// uvarint-packed IEEE-754 bits, and the payload maps inline. The
// dictionaries double as the segment's zone-map sets: membership
// checks let a reader skip a segment without touching a single row.
// A sealed segment is columnar in memory too: every column is a slice
// at its final length, a dictionary is sorted and binary-searched, not
// hashed — the position map exists only in the segBuilder while a
// segment is laid out — and rows with equal payloads share one map.
// Beside its columns a segment keeps per-subject row postings, derived
// from them and never stored, so an hour-wide segment is not walked row
// by row for one subject.
// A CRC-32 trailer makes torn or bit-rotted files detectable, and the
// decoder is fully bounds-checked — arbitrary bytes must produce an
// error, never a panic (see FuzzSegmentDecode).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
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
	// Rows whose payloads are equal share one map, which nobody mutates.
	payloads []map[string]string

	// Subject postings, derived from the columns (index) and never
	// stored: userRows[userOff[u]:userOff[u+1]] are the rows of
	// users.dict[u], ascending; the empty subject's rows are not listed.
	userOff, userRows []uint32
}

func (sg *segment) rows() int { return len(sg.seqs) }

// cols lists the dictionary columns in the order encode writes them.
func (sg *segment) cols() [5]*dictCol {
	return [5]*dictCol{&sg.sensors, &sg.spaces, &sg.users, &sg.kinds, &sg.macs}
}

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

// index derives the zone maps and the subject postings from the final
// columns. build and decode both end with it.
func (sg *segment) index() {
	sg.minSeq, sg.maxSeq = sg.seqs[0], sg.seqs[len(sg.seqs)-1]
	sg.minTime, sg.maxTime = slices.Min(sg.times), slices.Max(sg.times)

	// A counting sort of the rows by subject position, skipping the
	// empty subject (sorted first, so at position 0 when present).
	u := &sg.users
	skip := uint32(len(u.dict))
	if u.dict[0] == "" {
		skip = 0
	}
	off := make([]uint32, len(u.dict)+1)
	for _, p := range u.idx {
		if p != skip {
			off[p+1]++
		}
	}
	for p := 1; p < len(off); p++ {
		off[p] += off[p-1]
	}
	next := slices.Clone(off[:len(u.dict)])
	sg.userRows = make([]uint32, off[len(u.dict)])
	for i, p := range u.idx {
		if p != skip {
			sg.userRows[next[p]] = uint32(i)
			next[p]++
		}
	}
	sg.userOff = off
}

// disjoint reports whether the filter cannot match any row of this
// segment, judged purely from zone maps (seq/time ranges plus
// dictionary membership). Conservative: false means "must scan", and
// scanning is always correct.
func (sg *segment) disjoint(f *obstore.Filter) bool {
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
	for _, id := range f.SpaceIDs {
		if sg.spaces.has(id) {
			return false
		}
	}
	return len(f.SpaceIDs) > 0
}

// expiry judges the segment under cut by its zone map: gone when every
// kind it holds has expired through its newest row, rewrite when some
// kind has (compaction then takes its rows out: one rewrite per kind),
// check when a cutoff reaches its oldest row (rows are tested one by one).
func (sg *segment) expiry(cut *obstore.Cutoffs) (gone, check, rewrite bool) {
	gone = true
	for _, k := range sg.kinds.dict {
		c := cut.Of(sensor.ObservationKind(k))
		gone = gone && sg.maxTime <= c
		check = check || sg.minTime <= c
		rewrite = rewrite || sg.maxTime <= c
	}
	return gone, check, rewrite
}

// dictCol is one dictionary-coded string column: the distinct values
// in ascending order plus a per-row index stream. A hash map per column
// per segment would cost more memory than the column, so lookups
// binary-search dict.
type dictCol struct {
	dict []string
	idx  []uint32
}

func (c *dictCol) at(i int) string { return c.dict[c.idx[i]] }

// find returns s's dictionary position, or -1 when the value never
// occurs in this segment.
func (c *dictCol) find(s string) int {
	if pos, ok := slices.BinarySearch(c.dict, s); ok {
		return pos
	}
	return -1
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

// sortDict puts a dictionary in first-appearance order — how the
// builder collects it, and how earlier builds wrote it to disk — into
// ascending order and remaps the index stream. It reports false when a
// value repeats.
func (c *dictCol) sortDict() bool {
	if ascending(c.dict) {
		return true
	}
	order := make([]uint32, len(c.dict))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(c.dict[a], c.dict[b]) })
	dict := make([]string, len(c.dict))
	remap := make([]uint32, len(c.dict))
	for pos, old := range order {
		if pos > 0 && c.dict[old] == dict[pos-1] {
			return false
		}
		dict[pos], remap[old] = c.dict[old], uint32(pos)
	}
	for i, p := range c.idx {
		c.idx[i] = remap[p]
	}
	c.dict = dict
	return true
}

// ascending reports whether dict is strictly ascending: sorted, with no
// value repeated.
func ascending(dict []string) bool {
	for i := 1; i < len(dict); i++ {
		if dict[i-1] >= dict[i] {
			return false
		}
	}
	return true
}

// segBuilder lays out one segment a row at a time, so compaction
// streams the row store's tail into columns instead of first copying it
// into rows: add appends each field of a row to its column of a segment
// that grows in place. Compaction counts a bucket's rows before it
// builds it, so the columns start at their final length and seal hands
// them over as they are; a column that outgrew or fell short of its
// count is copied out at its length — a sealed segment stays on the
// heap, so append's growth slack would stay with it.
type segBuilder struct {
	sg segment
	// pos maps a value to its dictionary position, per column of cols.
	pos        [5]map[string]uint32
	hasPayload bool
	// shared maps a payload's encoding to the segment's one copy of it.
	shared map[string]map[string]string
	enc    []byte
}

// newSegBuilder returns a builder whose columns have room for rows
// rows; more or fewer may be added.
func newSegBuilder(bucket time.Time, rows int) *segBuilder {
	b := &segBuilder{sg: segment{bucket: bucket.UTC()}, shared: make(map[string]map[string]string)}
	b.sg.seqs = make([]uint64, 0, rows)
	b.sg.times = make([]int64, 0, rows)
	b.sg.values = make([]float64, 0, rows)
	b.sg.payloads = make([]map[string]string, 0, rows)
	for i, col := range b.sg.cols() {
		col.idx = make([]uint32, 0, rows)
		b.pos[i] = make(map[string]uint32)
	}
	return b
}

// add appends one row, which is not retained: its strings are immutable
// and its payload is copied. The caller owns ordering (ascending seq,
// all in the builder's bucket); seal asserts it.
func (b *segBuilder) add(o *sensor.Observation) {
	sg := &b.sg
	sg.seqs = append(sg.seqs, o.Seq)
	sg.times = append(sg.times, o.Time.UnixNano())
	sg.values = append(sg.values, o.Value)
	cols := sg.cols()
	for i, v := range [...]string{o.SensorID, o.SpaceID, o.UserID, string(o.Kind), o.DeviceMAC} {
		p, ok := b.pos[i][v]
		if !ok {
			p = uint32(len(cols[i].dict))
			cols[i].dict = append(cols[i].dict, v)
			b.pos[i][v] = p
		}
		cols[i].idx = append(cols[i].idx, p)
	}
	var p map[string]string
	if len(o.Payload) > 0 {
		p, b.hasPayload = b.payload(o.Payload), true
	}
	sg.payloads = append(sg.payloads, p)
}

// payload returns the segment's copy of p, made on first sight of its
// encoding.
func (b *segBuilder) payload(p map[string]string) map[string]string {
	b.enc = appendPayload(b.enc[:0], p)
	if m, ok := b.shared[string(b.enc)]; ok {
		return m
	}
	m := maps.Clone(p)
	b.shared[string(b.enc)] = m
	return m
}

// seal returns the rows added so far as a segment, which takes over the
// builder's columns: the builder is not used again.
func (b *segBuilder) seal(id uint64) (*segment, error) {
	in := &b.sg
	if in.rows() == 0 {
		return nil, errors.New("colstore: empty segment")
	}
	for i := 1; i < in.rows(); i++ {
		if in.seqs[i] <= in.seqs[i-1] {
			return nil, fmt.Errorf("colstore: segment rows out of seq order (%d after %d)", in.seqs[i], in.seqs[i-1])
		}
	}
	sg := &segment{id: id, bucket: in.bucket, seqs: exact(in.seqs), times: exact(in.times), values: exact(in.values)}
	if b.hasPayload {
		sg.payloads = exact(in.payloads)
	}
	for i, col := range sg.cols() {
		*col = dictCol{dict: exact(in.cols()[i].dict), idx: exact(in.cols()[i].idx)}
		col.sortDict() // the values are distinct: they are b.pos's keys
	}
	sg.index()
	return sg, nil
}

// exact returns s when it has no spare capacity, else a copy at its
// length. (slices.Clone would round the copy up to a size class.)
func exact[S ~[]E, E any](s S) S {
	if len(s) == cap(s) {
		return s
	}
	c := make(S, len(s))
	copy(c, s)
	return c
}

// appendPayload appends one row's payload encoding: the pair count,
// then each key and value length-prefixed, keys ascending. It is what
// encode writes and the key under which a segment shares equal
// payloads.
func appendPayload(buf []byte, p map[string]string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p)))
	keys := make([]string, 0, 8) // stays on the stack for typical payloads
	for k := range p {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, p[k])
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
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
//
// This build writes dictionaries sorted; earlier builds wrote them in
// first-appearance order, and decodeSegment reads both.
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
	for _, col := range sg.cols() {
		buf = binary.AppendUvarint(buf, uint64(len(col.dict)))
		for _, s := range col.dict {
			buf = appendString(buf, s)
		}
		for _, ix := range col.idx {
			buf = binary.AppendUvarint(buf, uint64(ix))
		}
	}
	for _, v := range sg.values {
		buf = binary.AppendUvarint(buf, math.Float64bits(v))
	}
	for i := range sg.seqs {
		buf = appendPayload(buf, sg.payload(i))
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

// raw returns the next length-prefixed string's bytes without copying.
func (r *segReader) raw() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxStringLen || r.off+int(n) > len(r.b) {
		r.fail()
		return nil
	}
	s := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return s
}

func (r *segReader) str() string { return string(r.raw()) }

// firstAppearance reports whether idx names dictionary positions 0..n-1
// each for the first time in that order, as earlier builds wrote them.
func firstAppearance(idx []uint32, n int) bool {
	next := uint32(0)
	for _, p := range idx {
		if p == next {
			next++
		} else if p > next {
			return false
		}
	}
	return int(next) == n
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
	sg := &segment{id: id, bytes: int64(len(data))}
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
	for _, col := range sg.cols() {
		dn := r.uvarint()
		if r.err != nil || dn == 0 || dn > maxDictEntries {
			r.fail()
			return nil, r.err
		}
		col.dict = make([]string, int(dn))
		for i := range col.dict {
			col.dict[i] = r.str()
		}
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
		// Sorted, or first-appearance order as earlier builds wrote it,
		// which is sorted here; nothing else is a segment.
		if !ascending(col.dict) && (!firstAppearance(col.idx, len(col.dict)) || !col.sortDict()) {
			return nil, errCorrupt
		}
	}
	sg.values = make([]float64, rows)
	for i := 0; i < rows; i++ {
		sg.values[i] = math.Float64frombits(r.uvarint())
	}
	// Equal payloads share one map, keyed by their encoding — the same
	// bytes the builder keys them by, so a reopened tier holds what the
	// compacting one did. The lookup comes before any allocation.
	var shared map[string]map[string]string
	for i := 0; i < rows; i++ {
		start := r.off
		pn := r.uvarint()
		if r.err != nil || pn > maxPayloadPairs {
			r.fail()
			return nil, r.err
		}
		if pn == 0 {
			continue
		}
		var prev []byte
		for j := uint64(0); j < pn; j++ {
			k := r.raw()
			r.raw()
			if j > 0 && bytes.Compare(prev, k) >= 0 { // keys strictly ascending
				r.fail()
			}
			if r.err != nil {
				return nil, r.err
			}
			prev = k
		}
		enc := body[start:r.off]
		p, ok := shared[string(enc)]
		if !ok {
			pr := &segReader{b: enc}
			pr.uvarint()
			p = make(map[string]string, int(pn))
			for j := uint64(0); j < pn; j++ {
				k := pr.str()
				p[k] = pr.str()
			}
			if shared == nil {
				shared = make(map[string]map[string]string)
				sg.payloads = make([]map[string]string, rows)
			}
			shared[string(enc)] = p
		}
		sg.payloads[i] = p
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, errCorrupt
	}
	sg.index()
	return sg, nil
}

// segCursor walks the rows of one segment that match a filter, in
// ascending seq, testing the columns directly. The filter's string
// predicates are resolved to dictionary positions once, when the
// cursor opens, so the per-row test is integer compares and no row is
// materialized until it has matched. A subject filter walks that
// subject's postings only. Semantics mirror obstore's
// filter exactly (From inclusive, To exclusive) so a segment scan and a
// store scan agree row for row.
type segCursor struct {
	sg *segment
	i  int // current row; a match once advance has returned true

	// The rows still to examine: post[pos:] when byUser, else the
	// segment's rows pos onward.
	byUser bool
	post   []uint32
	pos    int

	// from and last bound a matching row's time, both inclusive (unix
	// nanos).
	from, last int64
	// Dictionary position each column must equal: -1 leaves the column
	// unconstrained, -2 (value absent from the segment) matches no row.
	sensor, mac, kind int
	spaceOK           []bool // by spaces position; nil = unconstrained
	seqTomb           map[uint64]struct{}

	// cut is set when retention tests rows one by one, and cuts holds
	// the cutoff of each kinds position it reaches.
	cut  *obstore.Cutoffs
	cuts [8]int64
}

func openCursor(sg *segment, f *obstore.Filter, seqTomb map[uint64]struct{}, cut *obstore.Cutoffs) segCursor {
	c := segCursor{
		sg:      sg,
		from:    math.MinInt64,
		last:    math.MaxInt64,
		sensor:  sg.sensors.want(f.SensorID),
		mac:     sg.macs.want(f.DeviceMAC),
		kind:    sg.kinds.want(string(f.Kind)),
		seqTomb: seqTomb,
	}
	if !f.From.IsZero() {
		c.from = f.From.UnixNano()
	}
	if !f.To.IsZero() {
		c.last = f.To.UnixNano() - 1
	}
	if f.UserID != "" {
		c.byUser = true
		if u := sg.users.find(f.UserID); u >= 0 {
			c.post = sg.userRows[sg.userOff[u]:sg.userOff[u+1]]
			c.pos = sort.Search(len(c.post), func(k int) bool { return sg.seqs[c.post[k]] > f.AfterSeq })
		}
	} else {
		c.pos = sort.Search(len(sg.seqs), func(i int) bool { return sg.seqs[i] > f.AfterSeq })
	}
	if len(f.SpaceIDs) > 0 {
		c.spaceOK = make([]bool, len(sg.spaces.dict))
		for _, id := range f.SpaceIDs {
			if pos := sg.spaces.find(id); pos >= 0 {
				c.spaceOK[pos] = true
			}
		}
	}
	if _, check, _ := sg.expiry(cut); check {
		c.cut = cut
		for p := range min(len(c.cuts), len(sg.kinds.dict)) {
			c.cuts[p] = cut.Of(sensor.ObservationKind(sg.kinds.dict[p]))
		}
	}
	return c
}

// cutoff is the retention cutoff of the kind at dictionary position p.
func (c *segCursor) cutoff(p uint32) int64 {
	if int(p) < len(c.cuts) {
		return c.cuts[p]
	}
	return c.cut.Of(sensor.ObservationKind(c.sg.kinds.dict[p]))
}

// seq is the current row's sequence number.
func (c *segCursor) seq() uint64 { return c.sg.seqs[c.i] }

// advance moves to the next matching row; false means the segment is
// exhausted.
func (c *segCursor) advance() bool {
	sg := c.sg
	for {
		var i int
		if c.byUser {
			if c.pos >= len(c.post) {
				return false
			}
			i = int(c.post[c.pos])
		} else {
			if c.pos >= len(sg.seqs) {
				return false
			}
			i = c.pos
		}
		c.pos++
		if c.sensor != -1 && int(sg.sensors.idx[i]) != c.sensor ||
			c.mac != -1 && int(sg.macs.idx[i]) != c.mac ||
			c.kind != -1 && int(sg.kinds.idx[i]) != c.kind {
			continue
		}
		if c.spaceOK != nil && !c.spaceOK[sg.spaces.idx[i]] {
			continue
		}
		if ns := sg.times[i]; ns < c.from || ns > c.last || c.cut != nil && ns <= c.cutoff(sg.kinds.idx[i]) {
			continue
		}
		if len(c.seqTomb) > 0 {
			if _, dead := c.seqTomb[sg.seqs[i]]; dead {
				continue
			}
		}
		c.i = i
		return true
	}
}
