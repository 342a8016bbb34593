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
// A sealed segment is columnar in memory too, and packed (packed.go):
// every integer column — seqs as offsets from the least, times as
// offsets from the earliest in the coarsest of s, ms, µs and ns, the
// dictionary positions, the payload ids and the postings — holds each
// row at the narrowest of 0, 1, 2, 4 and 8 bytes its largest needs, and
// values are dictionary-coded the same way when that is smaller. A
// simulated building's hour packs to ≈ 20 B per row: seq 2, time 4,
// five dictionary positions 8, value ≈ 3, payload 1, posting ≈ 2 — plus
// ≈ 5 B per row of dictionary strings, a value a segment sealed or read
// before also holds sharing its string. A dictionary is sorted and
// binary-searched, not hashed — the position maps exist only while a
// compaction pass lays its segments out, one per column for the pass —
// and rows with equal payloads share one map. Beside its columns a
// segment keeps per-subject row postings, derived from them and never
// stored, so an hour-wide segment is not walked row by row for one
// subject.
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
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"
	"unsafe"

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
	seqs  uints
	times uints // timeKey of the unix nanos

	sensors dictCol
	spaces  dictCol
	users   dictCol
	kinds   dictCol
	macs    dictCol

	values floats
	// payloadIDs is 0 for a row without a payload, else 1 + the index of
	// its payload in payloads: rows whose payloads are equal share one
	// map, which nobody mutates.
	payloadIDs uints
	payloads   []map[string]string

	// Subject postings, derived from the columns (index) and never
	// stored: userRows entries userOff[u] up to userOff[u+1] are the rows
	// of users.dict[u], ascending; the empty subject's rows are not
	// listed.
	userOff, userRows uints

	// dicts are the users, kinds and spaces dictionaries as ScanCold
	// hands them to a visitor, next to each row's positions in them.
	dicts obstore.Dicts
	// strBytes is the heap the segment's own dictionary strings take:
	// the allocations pack laid them out in, one per column.
	strBytes int
}

func (sg *segment) rows() int { return sg.seqs.n }

func (sg *segment) seq(i int) uint64 { return sg.seqs.get(i) }

// time is row i's unix nanos.
func (sg *segment) time(i int) int64 { return keyTime(sg.times.get(i)) }

// cols lists the dictionary columns in the order encode writes them.
func (sg *segment) cols() [5]*dictCol {
	return [5]*dictCol{&sg.sensors, &sg.spaces, &sg.users, &sg.kinds, &sg.macs}
}

func (sg *segment) payload(i int) map[string]string {
	if id := sg.payloadIDs.get(i); id > 0 {
		return sg.payloads[id-1]
	}
	return nil
}

// search returns the first row whose seq is above after.
func (sg *segment) search(after uint64) int {
	return sort.Search(sg.rows(), func(i int) bool { return sg.seq(i) > after })
}

// holds reports whether one of the segment's rows has this seq.
func (sg *segment) holds(seq uint64) bool {
	if seq < sg.minSeq || seq > sg.maxSeq {
		return false
	}
	i := sg.search(seq - 1)
	return i < sg.rows() && sg.seq(i) == seq
}

// row materializes row i back into the store's observation shape.
// Times come back UTC-normalized, exactly as the WAL recovery path
// restores them.
func (sg *segment) row(i int) sensor.Observation {
	return sensor.Observation{
		Seq:       sg.seq(i),
		SensorID:  sg.sensors.at(i),
		Kind:      sensor.ObservationKind(sg.kinds.at(i)),
		Time:      time.Unix(0, sg.time(i)).UTC(),
		SpaceID:   sg.spaces.at(i),
		DeviceMAC: sg.macs.at(i),
		UserID:    sg.users.at(i),
		Value:     sg.values.at(i),
		Payload:   sg.payload(i),
	}
}

// index derives the zone maps, the subject postings and dicts from the
// final columns. build and decode both end with it.
func (sg *segment) index() {
	n := sg.rows()
	sg.minSeq, sg.maxSeq = sg.seq(0), sg.seq(n-1)
	sg.minTime, sg.maxTime = sg.time(0), sg.time(0)
	for i := 1; i < n; i++ {
		sg.minTime, sg.maxTime = min(sg.minTime, sg.time(i)), max(sg.maxTime, sg.time(i))
	}
	sg.dicts = obstore.Dicts{Users: sg.users.dict, Kinds: sg.kinds.dict, Spaces: sg.spaces.dict}

	// A counting sort of the rows by subject position, skipping the
	// empty subject (sorted first, so at position 0 when present).
	u := &sg.users
	skip := uint64(len(u.dict))
	if u.dict[0] == "" {
		skip = 0
	}
	next := make([]uint64, len(u.dict)+1)
	last := 0 // the last listed row
	for i := range n {
		if p := u.idx.get(i); p != skip {
			next[p+1]++
			last = i
		}
	}
	for p := 1; p < len(next); p++ {
		next[p] += next[p-1]
	}
	listed := next[len(u.dict)]
	sg.userOff = newUints(len(next), 0, 0, 1, widthOf(listed))
	for p, o := range next {
		sg.userOff.set(p, o)
	}
	sg.userRows = newUints(int(listed), 0, 0, 1, widthOf(uint64(last)))
	for i := range n {
		if p := u.idx.get(i); p != skip {
			sg.userRows.set(int(next[p]), uint64(i))
			next[p]++
		}
	}
}

// resident estimates the heap the segment holds: its packed columns at
// their widths, its values, its dictionaries' string headers, the
// string bytes it laid out (a string shared with the segment sealed or
// read before counts in that one only), and its payload maps, each pair
// a header's worth beside its bytes; each allocation as allocSize
// rounds it.
func (sg *segment) resident() int64 {
	n := allocSize(int(unsafe.Sizeof(*sg))) + allocSize(8*len(sg.values.raw)) + allocSize(8*len(sg.values.dict)) + sg.strBytes
	for _, c := range [...]*uints{&sg.seqs, &sg.times, &sg.payloadIDs, &sg.userOff, &sg.userRows, &sg.values.ids} {
		n += allocSize(cap(c.b))
	}
	for _, col := range sg.cols() {
		n += allocSize(cap(col.idx.b)) + allocSize(16*len(col.dict))
	}
	for _, p := range sg.payloads {
		n += 48
		for k, v := range p {
			n += 32 + len(k) + len(v)
		}
	}
	return int64(n)
}

// allocSize is near enough what the allocator takes for an object of n
// bytes: a small one rounded up to a sixteenth of the power of two above
// it, about as coarse as its size class, and a large one to whole 8 KiB
// pages.
func allocSize(n int) int {
	step := 8 << 10
	if n <= 32<<10 {
		step = 1 << max(bits.Len(uint(n))-4, 3)
	}
	return (n + step - 1) &^ (step - 1)
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
	idx  uints
}

func (c *dictCol) at(i int) string { return c.dict[c.idx.get(i)] }

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

// sortDict puts a dictionary in first-appearance order, as earlier
// builds wrote it to disk, into ascending order and remaps the index
// stream. It reports false when a value repeats.
func (c *dictCol) sortDict() bool {
	n := len(c.dict)
	new(sorter).layout(c)
	return len(c.dict) == n
}

// sorter is the scratch of layout and repeats.
type sorter struct {
	order, remap []uint32
	bits         []uint64
}

// layout lays a dictionary in the order its values were added — a value
// perhaps more than once — out once: ascending, each value once, at its
// exact length; and remaps the index stream to it.
func (s *sorter) layout(c *dictCol) {
	d := c.dict
	if ascending(d) {
		c.dict = exact(d)
		return
	}
	s.order = s.order[:0]
	for i := range d {
		s.order = append(s.order, uint32(i))
	}
	slices.SortFunc(s.order, func(a, b uint32) int { return strings.Compare(d[a], d[b]) })
	dict := make([]string, 0, len(d))
	s.remap = slices.Grow(s.remap[:0], len(d))[:len(d)]
	for _, old := range s.order {
		if len(dict) == 0 || d[old] != dict[len(dict)-1] {
			dict = append(dict, d[old])
		}
		s.remap[old] = uint32(len(dict) - 1)
	}
	for i := range c.idx.n {
		c.idx.set(i, uint64(s.remap[c.idx.get(i)]))
	}
	c.dict = exact(dict) // a copy only when a value was added twice
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

// repeats reports whether a value occurs twice in dict.
func (s *sorter) repeats(dict []float64) bool {
	s.bits = s.bits[:0]
	for _, v := range dict {
		s.bits = append(s.bits, math.Float64bits(v))
	}
	slices.Sort(s.bits)
	for k := 1; k < len(s.bits); k++ {
		if s.bits[k] == s.bits[k-1] {
			return true
		}
	}
	return false
}

// pass is the scratch of one compaction pass, shared by the builders it
// makes and dropped with it: nothing in it outlives CompactOnce (or
// Open, whose decodes share its strings the same way). Its
// tables map each value a column takes to the builder that took it
// last and the value's position in that builder's dictionary, so a
// pass makes one map per column, not one per column per bucket. A
// bucket's rows are contiguous in seq order in practice (the building
// reports in time order), so a value rarely goes back to a builder it
// left; one that does is added to that builder's dictionary again, and
// seal merges the repeats when it sorts.
type pass struct {
	// strs holds the dictionary columns' values, in cols' order, each
	// with the tier's own string for it once a segment of the pass holds
	// it (pack).
	strs     [5]map[string]slot
	floats   map[uint64]tag
	builders uint32 // made so far: a builder's tag is its number
	sorter
	enc []byte // a payload's encoding
}

// tag names the builder of a pass that took a value last (its number,
// from 1) and the value's position in that builder's dictionary.
type tag struct{ b, p uint32 }

// slot is a dictionary value's tag and, once laid out, the tier's own
// string for it.
type slot struct {
	tag
	s string
}

func newPass() *pass {
	p := &pass{floats: make(map[uint64]tag)}
	for i := range p.strs {
		p.strs[i] = make(map[string]slot)
	}
	return p
}

// segBuilder lays out one segment a row at a time, so compaction
// streams the row store's tail into columns instead of first copying it
// into rows: add appends each field of a row to its column of a segment
// that grows in place. The columns are packed as they fill: each starts
// at the narrowest width it can know of (seqs at the width the row count
// needs, times at 4 B of milliseconds from the bucket's start) and is
// re-laid only when a value outgrows it, so no full-width copy of a
// bucket is ever made. Compaction counts a bucket's rows
// before it builds it, so each column's first layout has room for that
// count; seal copies out a column that outgrew or fell short of it — a
// sealed segment stays on the heap, so growth slack would stay with it.
type segBuilder struct {
	sg     segment
	room   int
	p      *pass
	values floatBuilder // its tag is the builder's
	// shared maps a payload's encoding to its payload id.
	shared map[string]uint64
}

// builder returns a builder whose columns have room for rows rows; more
// or fewer may be added. Its dictionaries start with room for as many
// values as like's hold (nil for none), and their index columns at the
// width those need: the segment a rewrite replaces, or the bucket built
// before, is near enough the shape of this one that few of them grow.
func (p *pass) builder(bucket time.Time, rows int, like *segment) *segBuilder {
	p.builders++
	b := &segBuilder{sg: segment{bucket: bucket.UTC()}, room: rows, p: p, values: newFloatBuilder(rows, p.floats, p.builders)}
	// rows distinct seqs span at least rows-1.
	w := widthOf(uint64(max(rows-1, 0)))
	b.sg.seqs = newUints(0, rows, 0, 1, w)
	b.sg.payloadIDs = newUints(0, rows, 0, 1, 0)
	// Milliseconds from the bucket's start, 4 B each, hold an hour.
	b.sg.times = newUints(0, rows, timeKey(bucket.UnixNano()), uint64(time.Millisecond), 4)
	for i, col := range b.sg.cols() {
		n := min(rows, len(like.dict(i)))
		col.dict = make([]string, 0, n)
		col.idx = newUints(0, rows, 0, 1, widthOf(uint64(max(n-1, 0))))
	}
	return b
}

// add appends one row, which is not retained: its strings are immutable
// and its payload is copied. The caller owns ordering (ascending seq,
// all in the builder's bucket); seal asserts it.
func (b *segBuilder) add(o *sensor.Observation) {
	sg := &b.sg
	if sg.rows() == 0 {
		sg.seqs.base = o.Seq
	}
	sg.seqs.add(o.Seq, b.room)
	sg.times.add(timeKey(o.Time.UnixNano()), b.room)
	b.values.add(o.Value)
	cols := sg.cols()
	for i, v := range [...]string{o.SensorID, o.SpaceID, o.UserID, string(o.Kind), o.DeviceMAC} {
		e, ok := b.p.strs[i][v]
		if !ok || e.b != b.values.tag {
			e.tag = tag{b.values.tag, uint32(len(cols[i].dict))}
			cols[i].dict = append(cols[i].dict, v)
			b.p.strs[i][v] = e
		}
		cols[i].idx.add(uint64(e.p), b.room)
	}
	var id uint64
	if len(o.Payload) > 0 {
		id = b.payload(o.Payload)
	}
	sg.payloadIDs.add(id, b.room)
}

// payload returns the id of p, whose copy the segment makes on first
// sight of its encoding.
func (b *segBuilder) payload(p map[string]string) uint64 {
	b.p.enc = appendPayload(b.p.enc[:0], p)
	if id, ok := b.shared[string(b.p.enc)]; ok {
		return id
	}
	if b.shared == nil {
		b.shared = make(map[string]uint64)
	}
	b.sg.payloads = append(b.sg.payloads, maps.Clone(p))
	id := uint64(len(b.sg.payloads))
	b.shared[string(b.p.enc)] = id
	return id
}

// seal returns the rows added so far as a segment, which takes over the
// builder's columns: the builder is not used again. Each dictionary is
// laid out once, sorted, and holds strings of the tier's own (pack);
// prev may be nil.
func (b *segBuilder) seal(id uint64, prev *segment) (*segment, error) {
	in := &b.sg
	n := in.rows()
	if n == 0 {
		return nil, errors.New("colstore: empty segment")
	}
	for i := 1; i < n; i++ {
		if in.seq(i) <= in.seq(i-1) {
			return nil, fmt.Errorf("colstore: segment rows out of seq order (%d after %d)", in.seq(i), in.seq(i-1))
		}
	}
	sg := &segment{id: id, bucket: in.bucket, seqs: in.seqs, times: in.times, values: b.values.column(&b.p.sorter),
		payloadIDs: in.payloadIDs, payloads: exact(in.payloads)}
	sg.times.tighten()
	if w := widthOf(sg.seq(n-1) - sg.seq(0)); w < sg.seqs.width { // fewer rows than counted
		sg.seqs.relay(sg.seqs.base, 1, w, n)
	}
	for _, c := range []*uints{&sg.seqs, &sg.times, &sg.payloadIDs} {
		c.trim()
	}
	for i, col := range sg.cols() {
		*col = *in.cols()[i]
		col.idx.trim()
		b.p.layout(col)
		if w := widthOf(uint64(len(col.dict) - 1)); w < col.idx.width { // like's was larger, or a value was added twice
			col.idx.relay(0, 1, w, n)
		}
		sg.strBytes += pack(col.dict, prev.dict(i), b.p.strs[i])
	}
	sg.index()
	return sg, nil
}

// pack makes a sorted dictionary hold strings of the tier's own, as
// seal and decode leave every one: a value prev (a sorted dictionary of
// another segment) holds is prev's string, one strs knows the tier's
// string for is that string, and the rest are laid out in one
// allocation; strs learns every one. The builder's
// strings are the source rows' own, each sharing its allocation with
// whatever the ingest decoder made beside it, which a sealed segment
// would keep alive; and a value repeated in every hour's segment is held
// once, not once per segment. It returns the size of the allocation it
// laid them out in, which the builder rounds up to the allocator's size
// class.
func pack(dict, prev []string, strs map[string]slot) int {
	n := 0
	for i, j := 0, 0; i < len(dict); i++ {
		var shared bool
		if j, shared = seek(prev, j, dict[i]); !shared && strs[dict[i]].s == "" {
			n += len(dict[i])
		}
	}
	var b strings.Builder
	b.Grow(n) // exactly: the strings sliced out below never move
	for i, j := 0, 0; i < len(dict); i++ {
		var shared bool
		e := strs[dict[i]]
		switch j, shared = seek(prev, j, dict[i]); {
		case shared:
			dict[i] = prev[j]
		case e.s != "":
			dict[i] = e.s
		default:
			b.WriteString(dict[i])
			dict[i] = b.String()[b.Len()-len(dict[i]):]
		}
		if e.s == "" {
			e.s = dict[i]
			strs[dict[i]] = e
		}
	}
	return b.Cap()
}

// seek returns the position at or after j of the first value of the
// ascending prev not below s, and whether that value is s.
func seek(prev []string, j int, s string) (int, bool) {
	for j < len(prev) && prev[j] < s {
		j++
	}
	return j, j < len(prev) && prev[j] == s
}

// dict returns the dictionary of column i in cols' order, or nil for
// no segment.
func (sg *segment) dict(i int) []string {
	if sg == nil {
		return nil
	}
	return sg.cols()[i].dict
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
func (sg *segment) encode() []byte { return sg.appendEncoding(make([]byte, 0, sg.encodedLen())) }

// appendEncoding appends the segment's encoding to buf: a compaction
// pass encodes each segment it writes into one buffer.
func (sg *segment) appendEncoding(buf []byte) []byte {
	n, start := sg.rows(), len(buf)
	buf = append(buf, segMagic...)
	buf = binary.AppendUvarint(buf, segCodecVersion)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendVarint(buf, sg.bucket.UnixNano())

	buf = binary.AppendUvarint(buf, sg.seq(0))
	for i := 1; i < n; i++ {
		buf = binary.AppendUvarint(buf, sg.seq(i)-sg.seq(i-1))
	}
	buf = binary.AppendVarint(buf, sg.time(0))
	for i := 1; i < n; i++ {
		buf = binary.AppendVarint(buf, sg.time(i)-sg.time(i-1))
	}
	for _, col := range sg.cols() {
		buf = binary.AppendUvarint(buf, uint64(len(col.dict)))
		for _, s := range col.dict {
			buf = appendString(buf, s)
		}
		for i := range n {
			buf = binary.AppendUvarint(buf, col.idx.get(i))
		}
	}
	for i := range n {
		buf = binary.AppendUvarint(buf, math.Float64bits(sg.values.at(i)))
	}
	for i := range n {
		buf = appendPayload(buf, sg.payload(i))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// encodedLen is the length of the segment's encoding.
func (sg *segment) encodedLen() int {
	n := sg.rows()
	l := len(segMagic) + uvarintLen(segCodecVersion) + uvarintLen(uint64(n)) + varintLen(sg.bucket.UnixNano()) +
		uvarintLen(sg.seq(0)) + varintLen(sg.time(0)) + 4
	for i := 1; i < n; i++ {
		l += uvarintLen(sg.seq(i)-sg.seq(i-1)) + varintLen(sg.time(i)-sg.time(i-1))
	}
	for _, col := range sg.cols() {
		l += uvarintLen(uint64(len(col.dict)))
		for _, s := range col.dict {
			l += uvarintLen(uint64(len(s))) + len(s)
		}
		for i := range n {
			l += uvarintLen(col.idx.get(i))
		}
	}
	payloads := append(make([]int, 0, 8), 1) // by payload id; on the stack for a few payloads
	for _, p := range sg.payloads {
		pl := uvarintLen(uint64(len(p)))
		for k, v := range p {
			pl += uvarintLen(uint64(len(k))) + len(k) + uvarintLen(uint64(len(v))) + len(v)
		}
		payloads = append(payloads, pl)
	}
	for i := range n {
		l += uvarintLen(math.Float64bits(sg.values.at(i))) + payloads[sg.payloadIDs.get(i)]
	}
	return l
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

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
func firstAppearance(idx *uints, n int) bool {
	next := uint64(0)
	for i := range idx.n {
		if p := idx.get(i); p == next {
			next++
		} else if p > next {
			return false
		}
	}
	return int(next) == n
}

// decodeSegment parses one encoded segment. It must be total: any
// input either yields a structurally valid segment or an error.
// Dictionary values p knows the tier's string for are that string, and
// p learns the rest (pack); p may be nil.
func decodeSegment(id uint64, data []byte, p *pass) (*segment, error) {
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
	if p == nil {
		p = newPass()
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

	// Seqs ascend from the first, so their column only widens as it
	// fills; times are read at full width and then packed.
	seq := r.uvarint()
	sg.seqs = newUints(0, rows, seq, 1, 0)
	sg.seqs.add(seq, rows)
	for i := 1; i < rows && r.err == nil; i++ {
		d := r.uvarint()
		if d == 0 || seq+d < seq { // a repeat, or overflow
			r.fail()
		}
		seq += d
		sg.seqs.add(seq, rows)
	}
	if r.err != nil {
		return nil, r.err
	}
	ns := r.varint()
	sg.times = newUints(rows, rows, 0, 1, 8)
	sg.times.set(0, timeKey(ns))
	for i := 1; i < rows; i++ {
		ns += r.varint()
		sg.times.set(i, timeKey(ns))
	}
	if r.err != nil {
		return nil, r.err
	}
	sg.times.tighten()
	for c, col := range sg.cols() {
		dn := r.uvarint()
		if r.err != nil || dn == 0 || dn > maxDictEntries {
			r.fail()
			return nil, r.err
		}
		// The strings are read as views of data, which pack replaces
		// once the dictionary is sorted, before the segment is returned.
		col.dict = make([]string, int(dn))
		for i := range col.dict {
			raw := r.raw()
			col.dict[i] = unsafe.String(unsafe.SliceData(raw), len(raw))
		}
		col.idx = newUints(rows, rows, 0, 1, widthOf(dn-1))
		for i := 0; i < rows; i++ {
			ix := r.uvarint()
			if ix >= dn {
				r.fail()
				return nil, r.err
			}
			col.idx.set(i, ix)
		}
		if r.err != nil {
			return nil, r.err
		}
		// Sorted, or first-appearance order as earlier builds wrote it,
		// which is sorted here; nothing else is a segment.
		if !ascending(col.dict) && (!firstAppearance(&col.idx, len(col.dict)) || !col.sortDict()) {
			return nil, errCorrupt
		}
		sg.strBytes += pack(col.dict, nil, p.strs[c])
	}
	values := newFloatBuilder(rows, make(map[uint64]tag, rows/16), 1)
	for i := 0; i < rows; i++ {
		values.add(math.Float64frombits(r.uvarint()))
	}
	if r.err != nil {
		return nil, r.err
	}
	sg.values = values.column(&p.sorter)
	// Equal payloads share one map and id, keyed by their encoding — the
	// same bytes the builder keys them by, so a reopened tier holds what
	// the compacting one did. The lookup comes before any allocation.
	var shared map[string]uint64
	sg.payloadIDs = newUints(0, rows, 0, 1, 0)
	for i := 0; i < rows; i++ {
		start := r.off
		pn := r.uvarint()
		if r.err != nil || pn > maxPayloadPairs {
			r.fail()
			return nil, r.err
		}
		if pn == 0 {
			sg.payloadIDs.add(0, rows)
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
		id, ok := shared[string(enc)]
		if !ok {
			pr := &segReader{b: enc}
			pr.uvarint()
			p := make(map[string]string, int(pn))
			for j := uint64(0); j < pn; j++ {
				k := pr.str()
				p[k] = pr.str()
			}
			if shared == nil {
				shared = make(map[string]uint64)
			}
			sg.payloads = append(sg.payloads, p)
			id = uint64(len(sg.payloads))
			shared[string(enc)] = id
		}
		sg.payloadIDs.add(id, rows)
	}
	if r.err != nil {
		return nil, r.err
	}
	sg.payloads = exact(sg.payloads)
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

	// The rows still to examine: userRows entries pos up to end when
	// byUser, else the segment's rows pos up to end.
	byUser   bool
	pos, end int

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
			lo, hi := int(sg.userOff.get(u)), int(sg.userOff.get(u+1))
			c.pos = lo + sort.Search(hi-lo, func(k int) bool { return sg.seq(int(sg.userRows.get(lo+k))) > f.AfterSeq })
			c.end = hi
		}
	} else {
		c.pos, c.end = sg.search(f.AfterSeq), sg.rows()
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
func (c *segCursor) cutoff(p uint64) int64 {
	if int(p) < len(c.cuts) {
		return c.cuts[p]
	}
	return c.cut.Of(sensor.ObservationKind(c.sg.kinds.dict[p]))
}

// seq is the current row's sequence number.
func (c *segCursor) seq() uint64 { return c.sg.seq(c.i) }

// advance moves to the next matching row; false means the segment is
// exhausted.
func (c *segCursor) advance() bool {
	sg := c.sg
	for {
		if c.pos >= c.end {
			return false
		}
		i := c.pos
		if c.byUser {
			i = int(sg.userRows.get(c.pos))
		}
		c.pos++
		if c.sensor != -1 && int(sg.sensors.idx.get(i)) != c.sensor ||
			c.mac != -1 && int(sg.macs.idx.get(i)) != c.mac ||
			c.kind != -1 && int(sg.kinds.idx.get(i)) != c.kind {
			continue
		}
		if c.spaceOK != nil && !c.spaceOK[sg.spaces.idx.get(i)] {
			continue
		}
		if ns := sg.time(i); ns < c.from || ns > c.last || c.cut != nil && ns <= c.cutoff(sg.kinds.idx.get(i)) {
			continue
		}
		if len(c.seqTomb) > 0 {
			if _, dead := c.seqTomb[sg.seq(i)]; dead {
				continue
			}
		}
		c.i = i
		return true
	}
}
