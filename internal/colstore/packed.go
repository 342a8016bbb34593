package colstore

// Packed integer columns. A sealed segment stays on the heap for as long
// as the tier keeps it, so each of its integer columns is held at the
// narrowest width its values need rather than at the width of its Go
// type: one hour's seqs differ by less than 2¹⁶, its times fit 4 B as
// milliseconds, and its dictionaries rarely pass 2¹⁶ entries.

import (
	"encoding/binary"
	"math"
	"slices"
	"time"
)

// uints is a packed column of n unsigned integers: entry i is base +
// off(i)·step, each offset stored little-endian at width bytes — the
// narrowest of 0, 1, 2, 4 and 8 that holds the largest, 0 when every
// entry is base. b's capacity runs 8 bytes past its n·width, so get
// reads any entry as one 8-byte load and a mask, without a branch on
// the width; a column of width 0 shares zeros for those 8.
type uints struct {
	base, step, mask uint64
	n, width         int
	b                []byte
}

var zeros [8]byte

// widthOf is the narrowest width that holds off.
func widthOf(off uint64) int {
	switch {
	case off == 0:
		return 0
	case off <= math.MaxUint8:
		return 1
	case off <= math.MaxUint16:
		return 2
	case off <= math.MaxUint32:
		return 4
	}
	return 8
}

// newUints returns a column of n entries, all base, at width bytes,
// with room for room entries.
func newUints(n, room int, base, step uint64, width int) uints {
	c := uints{base: base, step: step, mask: 1<<(8*width) - 1, n: n, width: width, b: zeros[:0:8]}
	if width == 8 {
		c.mask = math.MaxUint64
	}
	if width > 0 {
		c.b = make([]byte, n*width, max(room, n)*width+8)
	}
	return c
}

func (c *uints) get(i int) uint64 {
	j := i * c.width
	return c.base + (binary.LittleEndian.Uint64(c.b[j:j+8])&c.mask)*c.step
}

// offset is v's offset from the base in steps; v must be at or above
// the base. (Most columns step by 1, which needs no division.)
func (c *uints) offset(v uint64) uint64 {
	if c.step == 1 {
		return v - c.base
	}
	return (v - c.base) / c.step
}

// set stores v, which the column's base, step and width must hold, as
// entry i.
func (c *uints) set(i int, v uint64) { c.put(i, c.offset(v)) }

func (c *uints) put(i int, off uint64) {
	switch c.width {
	case 1:
		c.b[i] = byte(off)
	case 2:
		binary.LittleEndian.PutUint16(c.b[2*i:], uint16(off))
	case 4:
		binary.LittleEndian.PutUint32(c.b[4*i:], uint32(off))
	case 8:
		binary.LittleEndian.PutUint64(c.b[8*i:], off)
	}
}

// add appends v, making room for room entries in all when the column
// has to grow. A value below the base, off the step or past the width
// re-lays the column first. Widths only grow; a step only gets finer,
// through the powers of 1 000 (a time column's s, ms, µs and ns); and
// the base only falls for a value below every earlier one — which a
// bucket's rows never are for a base at the bucket's start.
func (c *uints) add(v uint64, room int) {
	off := c.offset(v)
	if v < c.base || off*c.step != v-c.base || widthOf(off) > c.width {
		base, step, hi := min(c.base, v), c.step, v
		for i := range c.n {
			hi = max(hi, c.get(i))
		}
		for step > 1 && ((c.base-base)%step != 0 || (v-base)%step != 0) {
			step /= 1000
		}
		c.relay(base, step, max(c.width, widthOf((hi-base)/step)), max(room, c.n+1))
		off = c.offset(v)
	}
	if len(c.b)+c.width+8 > cap(c.b) {
		c.b = slices.Grow(c.b, c.width+8)
	}
	c.b = c.b[:len(c.b)+c.width]
	c.put(c.n, off)
	c.n++
}

// relay re-lays the column at base, step and width, with room for room
// entries.
func (c *uints) relay(base, step uint64, width, room int) {
	out := newUints(c.n, room, base, step, width)
	for i := range c.n {
		out.set(i, c.get(i))
	}
	*c = out
}

// trim drops spare capacity but the 8 bytes get reads past the end: a
// sealed column stays on the heap, and growth slack would stay with it.
func (c *uints) trim() {
	if cap(c.b) != len(c.b)+8 {
		c.b = append(make([]byte, 0, len(c.b)+8), c.b...)
	}
}

// A time column holds unix nanoseconds shifted by 2⁶³, so that unsigned
// order is time order and a pre-1970 time is no special case.
const timeShift = 1 << 63

func timeKey(ns int64) uint64 { return uint64(ns) ^ timeShift }

func keyTime(k uint64) int64 { return int64(k ^ timeShift) }

// tighten re-lays a time column at its narrowest: offsets from its
// earliest time in the coarsest of 1 s, 1 ms, 1 µs and 1 ns that
// divides every one, when that is narrower than the column is.
func (c *uints) tighten() {
	lo, hi := c.get(0), c.get(0)
	for i := 1; i < c.n; i++ {
		v := c.get(i)
		lo, hi = min(lo, v), max(hi, v)
	}
	step := uint64(time.Second)
	for i := 0; i < c.n && step > 1; i++ {
		for (c.get(i)-lo)%step != 0 {
			step /= 1000
		}
	}
	if w := widthOf((hi - lo) / step); w < c.width {
		c.relay(lo, step, w, c.n)
	}
}

// floats is the value column: dictionary-coded — dict[ids.get(i)] —
// when that takes fewer bytes than the values themselves, else raw.
type floats struct {
	raw  []float64
	dict []float64
	ids  uints
}

func (c *floats) at(i int) float64 {
	if c.raw != nil {
		return c.raw[i]
	}
	return c.dict[c.ids.get(i)]
}

// coded reports whether a dictionary of d values takes fewer bytes than
// n raw values.
func coded(d, n int) bool { return 8*d+n*widthOf(uint64(d-1)) < 8*n }

// floatBuilder lays out a value column: it codes every value, and
// column keeps the codes or the raw values, whichever is smaller.
type floatBuilder struct {
	floats
	room int
	// vals maps a value's bits to the builder that took it last and its
	// position in that builder's dictionary. The builders of a compaction
	// pass share one, so a builder adds a value to its dictionary again
	// when another builder took it in between.
	vals map[uint64]tag
	tag  uint32
	// last and lastPos are the previous value's bits and position: runs
	// of one value (a sensor's rows without a reading) skip the map.
	last    uint64
	lastPos uint32
}

// newFloatBuilder returns a builder for room rows that tags its values t
// in vals. Its dictionary starts at a sixteenth of the rows distinct:
// few growths when a bucket holds many readings, little to drop when it
// holds none.
func newFloatBuilder(room int, vals map[uint64]tag, t uint32) floatBuilder {
	return floatBuilder{floats: floats{ids: newUints(0, room, 0, 1, 0), dict: make([]float64, 0, room/16)}, room: room, vals: vals, tag: t}
}

func (b *floatBuilder) add(v float64) {
	bits := math.Float64bits(v)
	p, ok := b.lastPos, bits == b.last && b.ids.n > 0
	if !ok {
		t, found := b.vals[bits]
		p, ok = t.p, found && t.b == b.tag
	}
	if !ok {
		p = uint32(len(b.dict))
		b.dict = append(b.dict, v)
		b.vals[bits] = tag{b.tag, p}
	}
	b.last, b.lastPos = bits, p
	b.ids.add(uint64(p), b.room)
}

// column returns the values added as a column at its final layout,
// laying them out afresh through a map of their own when the dictionary
// holds a value twice.
func (b *floatBuilder) column(s *sorter) floats {
	n := b.ids.n
	if s.repeats(b.dict) {
		fb := newFloatBuilder(n, make(map[uint64]tag, n/16), 1)
		for i := range n {
			fb.add(b.at(i))
		}
		b = &fb
	}
	if coded(len(b.dict), n) {
		c := b.floats
		c.dict = exact(c.dict)
		c.ids.trim()
		return c
	}
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = b.at(i)
	}
	return floats{raw: raw}
}
