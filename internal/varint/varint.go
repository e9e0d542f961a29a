// Package varint is the canonical binary form the journal's records and
// the service's checkpoints share: signed integers as zigzag varints,
// lengths and counts as unsigned varints, floats as their 8 IEEE bytes
// (little-endian), flags and small codes as one byte. Encoders append with
// encoding/binary and the helpers here; Reader decodes, accepting only the
// shortest form of each value, so every input a decoder built on it accepts
// re-encodes to itself.
package varint

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendFloat appends f as its 8 IEEE bytes.
func AppendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendBool appends b as one byte, 1 or 0.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// Reader is a bounds-checked cursor over one encoding: a read past the end
// or off the canonical form sets the error (the first one sticks) and
// returns zero instead of panicking, so a decoder built on it survives any
// input and checks Err once at the end.
type Reader struct {
	buf  []byte
	off  int
	err  error
	what string
}

// NewReader returns a cursor at the start of b; what prefixes its errors
// ("journal: record", "sim: engine snapshot").
func NewReader(b []byte, what string) Reader { return Reader{buf: b, what: what} }

// Err returns the first error a read hit, nil when none did.
func (r *Reader) Err() error { return r.err }

// Remaining returns the bytes not yet read.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Failf records a decoder's own refusal, unless an error already stuck.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.what+" "+format, args...)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.Remaining() < 1 {
		r.Failf("truncated at byte %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a flag byte, refusing any but 0 and 1.
func (r *Reader) Bool() bool {
	at := r.off
	switch v := r.U8(); v {
	case 0, 1:
		return v == 1
	default:
		r.Failf("flag byte %d at byte %d", v, at)
		return false
	}
}

// Uvarint reads one unsigned varint in its shortest form: a multi-byte
// encoding whose last byte is zero spells the same value longer.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.Failf("truncated at byte %d", r.off)
		return 0
	case n < 0:
		r.Failf("varint overflows 64 bits at byte %d", r.off)
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		r.Failf("overlong varint at byte %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads one zigzag varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Int32 reads one zigzag varint into an int32 field, refusing a value the
// field cannot hold.
func (r *Reader) Int32() int32 {
	at := r.off
	v := r.Varint()
	if int64(int32(v)) != v {
		r.Failf("varint %d at byte %d overflows int32", v, at)
		return 0
	}
	return int32(v)
}

// Int reads one zigzag varint into an int field, refusing a value the
// platform's int cannot hold.
func (r *Reader) Int() int {
	at := r.off
	v := r.Varint()
	if int64(int(v)) != v {
		r.Failf("varint %d at byte %d overflows int", v, at)
		return 0
	}
	return int(v)
}

// Float reads 8 IEEE bytes.
func (r *Reader) Float() float64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bytes returns the next n bytes, aliasing the input, and steps past them;
// nil when fewer are left.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.Failf("truncated at byte %d", r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Bound checks an element count just read: it refuses one above limit or
// one whose elements, each at least each bytes, cannot fit in the bytes
// left — before the caller allocates for them.
func (r *Reader) Bound(n uint64, limit, each int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(limit) || n > uint64(r.Remaining()/each) {
		r.Failf("count %d at byte %d exceeds its cap %d or the bytes left", n, r.off, limit)
		return 0
	}
	return int(n)
}

// Count reads an element count (an unsigned varint) and Bounds it.
func (r *Reader) Count(limit, each int) int { return r.Bound(r.Uvarint(), limit, each) }

// Finish returns the first error, or an error naming the bytes left after
// the last field: a canonical encoding ends exactly there.
func (r *Reader) Finish() error {
	if r.err == nil && r.Remaining() != 0 {
		r.Failf("has %d trailing bytes", r.Remaining())
	}
	return r.err
}
