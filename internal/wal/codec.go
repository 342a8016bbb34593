package wal

import (
	"encoding/binary"
	"fmt"
)

// The primitives the payloads framed here are encoded with — the
// store's observations and checkpoint header, core's rule records:
// uvarints, varints, and strings behind a uvarint length.

// AppendString appends s behind its uvarint length.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Decoder reads the primitives from Data at Off, latching the first
// error in Err; every read after it returns the zero value.
type Decoder struct {
	Data []byte
	Off  int
	Err  error
}

// Uvarint reads one uvarint.
func (d *Decoder) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Data[d.Off:])
	if n <= 0 {
		d.Err = fmt.Errorf("truncated uvarint at offset %d", d.Off)
		return 0
	}
	d.Off += n
	return v
}

// Varint reads one varint.
func (d *Decoder) Varint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.Data[d.Off:])
	if n <= 0 {
		d.Err = fmt.Errorf("truncated varint at offset %d", d.Off)
		return 0
	}
	d.Off += n
	return v
}

// Str reads one string AppendString wrote.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.Err != nil {
		return ""
	}
	if n > uint64(len(d.Data)-d.Off) {
		d.Err = fmt.Errorf("string of %d bytes exceeds data at offset %d", n, d.Off)
		return ""
	}
	s := string(d.Data[d.Off : d.Off+int(n)])
	d.Off += int(n)
	return s
}
