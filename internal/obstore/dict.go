package obstore

import (
	"hash/maphash"
	"math/bits"
)

// dictLen is a dictionary chunk's length: as many keys with their
// position lists (a string and three slice headers, 88 bytes) as fill a
// 16 KiB allocation less the 8-byte header the runtime puts before it.
// A chunk of bare strings is then 3 KiB.
const dictLen = (16<<10 - 8) / 88

// dictSeed seeds every dictionary's index.
var dictSeed = maphash.MakeSeed()

// dict is a hot log's append-only string dictionary, with an X beside
// each string: a key's position lists, or nothing. Code c names entry
// c%dictLen of chunks[c/dictLen], and code 0 is "". Entries sit in
// fixed-size chunks, so growth never moves one and a copy of d reads
// every code below its n while the writer appends past it. index finds
// a string's code: an open-addressed table of codes (0 an empty slot),
// linearly probed and at most half full, so a string costs its header
// and 8 to 16 bytes of table where a Go map entry of string and code
// costs about 30 to 60 — under randomised MACs, strings seen in one row
// are most of what a log's dictionary holds.
type dict[X any] struct {
	chunks []*dictChunk[X]
	n      int
	index  []uint32
}

type dictChunk[X any] struct {
	s [dictLen]string
	x [dictLen]X
}

// newDict returns an empty dictionary whose index and chunk list are
// made for room strings, so one shaped like its predecessor regrows
// neither; the chunks come with the strings, so one left empty holds
// none.
func newDict[X any](room int) dict[X] {
	if room == 0 {
		return dict[X]{}
	}
	return dict[X]{chunks: make([]*dictChunk[X], 0, (room-1)/dictLen+1), index: make([]uint32, tableSize(room))}
}

// tableSize is the index length for n > 0 codes: a power of two at least
// twice n.
func tableSize(n int) int {
	return max(8, 1<<bits.Len(uint(2*n-1)))
}

func (d *dict[X]) at(c uint32) string { return d.chunks[c/dictLen].s[c%dictLen] }

// of returns the X beside code c's string.
func (d *dict[X]) of(c uint32) *X { return &d.chunks[c/dictLen].x[c%dictLen] }

// code returns s's code and whether d holds s.
func (d *dict[X]) code(s string) (uint32, bool) {
	if s == "" || len(d.index) == 0 {
		return 0, s == ""
	}
	mask := uint64(len(d.index) - 1)
	for i := maphash.String(dictSeed, s) & mask; d.index[i] != 0; i = (i + 1) & mask {
		if c := d.index[i]; d.at(c) == s {
			return c, true
		}
	}
	return 0, false
}

// intern returns s's code, adding s if it is new.
func (d *dict[X]) intern(s string) uint32 {
	if d.n == 0 {
		d.add("")
	}
	if s == "" {
		return 0
	}
	if 2*(d.n+1) > len(d.index) {
		d.rehash(max(8, 2*len(d.index)))
	}
	mask := uint64(len(d.index) - 1)
	i := maphash.String(dictSeed, s) & mask
	for ; d.index[i] != 0; i = (i + 1) & mask {
		if c := d.index[i]; d.at(c) == s {
			return c
		}
	}
	c := uint32(d.n)
	d.add(s)
	d.index[i] = c
	return c
}

// add appends s as the next code.
func (d *dict[X]) add(s string) {
	if d.n == len(d.chunks)*dictLen {
		d.chunks = append(d.chunks, new(dictChunk[X]))
	}
	d.chunks[d.n/dictLen].s[d.n%dictLen] = s
	d.n++
}

// rehash rebuilds the index at size slots.
func (d *dict[X]) rehash(size int) {
	index := make([]uint32, size)
	mask := uint64(size - 1)
	for c := uint32(1); c < uint32(d.n); c++ {
		i := maphash.String(dictSeed, d.at(c)) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = c
	}
	d.index = index
}
