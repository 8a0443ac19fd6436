// Package wire defines every protocol message exchanged in the system and a
// compact hand-rolled binary codec for them.
//
// The codec serves two purposes. First, the TCP transport (internal/livenet)
// needs real frames. Second, the simulator charges bandwidth by the encoded
// size of each message, so the paper's metadata arguments (6-byte node IDs in
// embedded paths, 2-byte DAG depths, …) are reproduced byte-for-byte rather
// than approximated.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
)

// ErrTruncated is returned when a decode runs past the end of the buffer.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTooLong is returned when a variable-length field exceeds its limit.
var ErrTooLong = errors.New("wire: field too long")

// maxSliceLen bounds decoded slice lengths to keep a corrupt or hostile frame
// from forcing a huge allocation.
const maxSliceLen = 1 << 20

// Encoder appends fixed-width big-endian values to a byte slice.
type Encoder struct {
	B []byte
}

// U8 appends a byte.
func (e *Encoder) U8(v uint8) { e.B = append(e.B, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a big-endian uint16.
func (e *Encoder) U16(v uint16) { e.B = binary.BigEndian.AppendUint16(e.B, v) }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) { e.B = binary.BigEndian.AppendUint32(e.B, v) }

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) { e.B = binary.BigEndian.AppendUint64(e.B, v) }

// I64 appends a big-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// NodeID appends a 48-bit node identifier.
func (e *Encoder) NodeID(id ids.NodeID) {
	v := uint64(id)
	e.B = append(e.B, byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// NodeIDs appends a u16 count followed by the identifiers.
func (e *Encoder) NodeIDs(s []ids.NodeID) {
	e.U16(uint16(len(s)))
	for _, id := range s {
		e.NodeID(id)
	}
}

// Bytes appends a u32 length prefix followed by the raw bytes.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.B = append(e.B, b...)
}

// Decoder reads fixed-width big-endian values from a byte slice. The first
// decoding error sticks; callers check Err once at the end.
type Decoder struct {
	B   []byte
	Off int
	Err error
}

func (d *Decoder) fail() {
	if d.Err == nil {
		d.Err = ErrTruncated
	}
}

func (d *Decoder) take(n int) []byte {
	if d.Err != nil {
		return nil
	}
	if d.Off+n > len(d.B) {
		d.fail()
		return nil
	}
	b := d.B[d.Off : d.Off+n]
	d.Off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U16 reads a big-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// NodeID reads a 48-bit node identifier.
func (d *Decoder) NodeID() ids.NodeID {
	b := d.take(ids.WireSize)
	if b == nil {
		return ids.Nil
	}
	v := uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
	return ids.NodeID(v)
}

// NodeIDs reads a u16-prefixed identifier list.
func (d *Decoder) NodeIDs() []ids.NodeID {
	n := int(d.U16())
	if d.Err != nil || n == 0 {
		return nil
	}
	if d.Off+n*ids.WireSize > len(d.B) {
		d.fail()
		return nil
	}
	out := make([]ids.NodeID, n)
	for i := range out {
		out[i] = d.NodeID()
	}
	return out
}

// path reads a u16-prefixed identifier list like NodeIDs, through the
// connection's interned path when there is a decoder: wire bytes equal to the
// interned path's return the slice decoded then, anything else is decoded
// into a fresh slice that replaces it. The empty path is nil and leaves the
// interned one alone.
func (d *Decoder) path(c *ConnDecoder) []ids.NodeID {
	if c == nil {
		return d.NodeIDs()
	}
	// c.raw starts with its own count, so a prefix match is the whole list.
	if d.Err == nil && len(c.raw) > 0 && bytes.HasPrefix(d.B[d.Off:], c.raw) {
		d.Off += len(c.raw)
		return c.path
	}
	start := d.Off
	out := d.NodeIDs()
	if out != nil {
		c.raw, c.path = append(c.raw[:0], d.B[start:d.Off]...), out
	}
	return out
}

// NodeIDsAppend reads a u16-prefixed identifier list into dst, returning the
// extended slice and the subslice holding this list. Hot decode paths
// (keep-alive piggybacks) pass a reused arena so per-message decoding does
// not allocate.
func (d *Decoder) NodeIDsAppend(dst []ids.NodeID) (arena, list []ids.NodeID) {
	n := int(d.U16())
	if d.Err != nil || n == 0 {
		return dst, nil
	}
	if d.Off+n*ids.WireSize > len(d.B) {
		d.fail()
		return dst, nil
	}
	start := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, d.NodeID())
	}
	return dst, dst[start:]
}

// Bytes reads a u32-prefixed byte string. The returned slice aliases the
// input buffer.
func (d *Decoder) Bytes() []byte {
	n := int(d.U32())
	if d.Err != nil {
		return nil
	}
	if n > maxSliceLen {
		d.Err = fmt.Errorf("%w: %d bytes", ErrTooLong, n)
		return nil
	}
	return d.take(n)
}

// Finish returns the sticky error, or an error if trailing bytes remain.
func (d *Decoder) Finish() error {
	if d.Err != nil {
		return d.Err
	}
	if d.Off != len(d.B) {
		return fmt.Errorf("wire: %d trailing bytes", len(d.B)-d.Off)
	}
	return nil
}

// sizes of the fixed-width primitives, for arithmetic WireSize methods.
const (
	szU8   = 1
	szBool = 1
	szU16  = 2
	szU32  = 4
	szU64  = 8
	szI64  = 8
	szID   = ids.WireSize
)

func szNodeIDs(s []ids.NodeID) int { return szU16 + len(s)*szID }
func szBytes(b []byte) int         { return szU32 + len(b) }
