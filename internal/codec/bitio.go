package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrBitstream is returned when a decoder reads past the end of, or finds
// malformed structure in, an encoded stream.
var ErrBitstream = errors.New("codec: malformed bitstream")

// BitWriter accumulates bits MSB-first into a byte slice.
type BitWriter struct {
	buf  []byte
	bits uint8 // number of valid bits in the pending byte
	cur  uint8
}

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint8(b&1)
	w.bits++
	if w.bits == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.bits = 0, 0
	}
}

// WriteBits appends the low n bits of v, MSB first. n must be <= 32.
func (w *BitWriter) WriteBits(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> uint(i) & 1))
	}
}

// WriteUE appends v in unsigned Exp-Golomb code.
func (w *BitWriter) WriteUE(v uint32) {
	x := v + 1
	n := 0
	for t := x; t > 1; t >>= 1 {
		n++
	}
	for i := 0; i < n; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(x, n+1)
}

// WriteSE appends v in signed Exp-Golomb code (0, 1, -1, 2, -2, ...).
func (w *BitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.WriteUE(u)
}

// Bytes flushes the pending byte (zero-padded) and returns the buffer.
func (w *BitWriter) Bytes() []byte {
	if w.bits > 0 {
		w.buf = append(w.buf, w.cur<<(8-w.bits))
		w.cur, w.bits = 0, 0
	}
	return w.buf
}

// BitReader consumes bits MSB-first from a byte slice.
//
// ReadBits and ReadUE take a whole value from one 64-bit window when it
// lies inside the data, and otherwise fall back to reading bit by bit,
// so every error comes out at the same input and bit position as a
// purely bitwise reader's.
type BitReader struct {
	data []byte
	pos  int // bit position
}

// NewBitReader wraps data for reading.
func NewBitReader(data []byte) *BitReader { return &BitReader{data: data} }

// window returns the 64 bits from the read position on, MSB first and
// zero past the end of the data, and how many of them are data.
func (r *BitReader) window() (uint64, int) {
	i, sh := r.pos>>3, r.pos&7
	if i+8 <= len(r.data) {
		return binary.BigEndian.Uint64(r.data[i:]) << sh, 64 - sh
	}
	var w uint64
	for k, b := range r.data[i:] {
		w |= uint64(b) << (56 - 8*k)
	}
	return w << sh, len(r.data)*8 - r.pos
}

// ReadBit returns the next bit.
func (r *BitReader) ReadBit() (uint, error) {
	if r.pos >= len(r.data)*8 {
		return 0, fmt.Errorf("%w: read past end", ErrBitstream)
	}
	b := r.data[r.pos/8] >> (7 - uint(r.pos%8)) & 1
	r.pos++
	return uint(b), nil
}

// ReadBits returns the next n bits as an unsigned value. n must be <= 32.
func (r *BitReader) ReadBits(n int) (uint32, error) {
	if w, avail := r.window(); uint(n) <= 32 && n <= avail {
		r.pos += n
		return uint32(w >> (64 - n)), nil
	}
	var v uint32
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// ReadUE decodes an unsigned Exp-Golomb value.
func (r *BitReader) ReadUE() (uint32, error) {
	w, avail := r.window()
	if n := bits.LeadingZeros64(w); 2*n+1 <= avail {
		// The top 2n+1 bits are n zeros, a one and n suffix bits:
		// read as a number, that is 1<<n + suffix. 2n+1 <= 64 keeps
		// n <= 31, so it fits in 32 bits.
		r.pos += 2*n + 1
		return uint32(w>>(63-2*n)) - 1, nil
	}
	n := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, fmt.Errorf("%w: exp-golomb prefix too long", ErrBitstream)
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return uint32(1)<<uint(n) + rest - 1, nil
}

// ReadSE decodes a signed Exp-Golomb value.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}
