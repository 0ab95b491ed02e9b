package codec

import (
	"bytes"
	"fmt"
	"testing"
)

// bitwiseReader is the reference BitReader: every read goes one bit at a
// time. BitReader must agree with it on every value, bit position and
// error.
type bitwiseReader struct {
	data []byte
	pos  int
}

func (r *bitwiseReader) ReadBit() (uint, error) {
	if r.pos >= len(r.data)*8 {
		return 0, fmt.Errorf("%w: read past end", ErrBitstream)
	}
	b := r.data[r.pos/8] >> (7 - uint(r.pos%8)) & 1
	r.pos++
	return uint(b), nil
}

func (r *bitwiseReader) ReadBits(n int) (uint32, error) {
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

func (r *bitwiseReader) ReadUE() (uint32, error) {
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

func (r *bitwiseReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

// Bit reader ops for FuzzBitReader's script: the low two bits of a
// script byte pick the op, and for opBits the rest give n = byte>>2 % 33.
const (
	opBit = iota
	opBits
	opUE
	opSE
)

// runBitOp applies one script op to a reader, reporting the value read
// (as int64, so signed and unsigned reads compare alike) and the error.
func runBitOp(op byte, bit func() (uint, error), bits func(int) (uint32, error),
	ue func() (uint32, error), se func() (int32, error)) (int64, error) {
	switch op & 3 {
	case opBit:
		v, err := bit()
		return int64(v), err
	case opBits:
		v, err := bits(int(op>>2) % 33)
		return int64(v), err
	case opUE:
		v, err := ue()
		return int64(v), err
	default:
		v, err := se()
		return int64(v), err
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzBitReader runs the same op script over BitReader and the bitwise
// reference, comparing value, position and error after every op.
func FuzzBitReader(f *testing.F) {
	c := clip(&testing.T{})
	enc, err := NewEncoder(c.W, c.H, 2, 4)
	if err != nil {
		f.Fatal(err)
	}
	// The start of a real I- and P-frame payload, read as (run, level)
	// pairs with a skip bit between them, on past the end. Seeds stay
	// short so the fuzzer minimises what it finds quickly.
	pairs := bytes.Repeat([]byte{opUE, opSE, opUE, opSE, opBit}, 16)
	for i := 0; i < 2; i++ {
		ef, err := enc.Encode(c.Frame(i))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ef.Data[:min(len(ef.Data), 32)], pairs)
	}
	f.Add([]byte{}, []byte{opBit, opUE, opSE, opBits | 8<<2})
	f.Add(make([]byte, 5), []byte{opUE, opBit, opUE})                            // prefix too long
	f.Add([]byte{0x01}, []byte{opUE, opBit})                                     // 7-bit prefix, suffix cut off
	f.Add([]byte{0x08}, []byte{opUE, opBit})                                     // one suffix bit short
	f.Add([]byte{0xff}, []byte{opBits | 9<<2, opBits | 8<<2})                    // one bit short, then exact
	f.Add([]byte{0x00, 0x01, 0xff}, []byte{opBit, opUE, opUE})                   // 15-bit prefix, suffix cut off
	f.Add([]byte{0, 0, 0, 0x01, 0xff, 0xff, 0xff, 0xff}, []byte{opUE, opBit})    // 31-bit prefix
	f.Add([]byte{0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff}, []byte{opUE, opBit}) // 32-bit prefix
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}, []byte{opBits | 32<<2, opBits | 3<<2, opBits | 5<<2, opBits})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		got := NewBitReader(data)
		want := &bitwiseReader{data: data}
		for i, op := range script {
			gv, gerr := runBitOp(op, got.ReadBit, got.ReadBits, got.ReadUE, got.ReadSE)
			wv, werr := runBitOp(op, want.ReadBit, want.ReadBits, want.ReadUE, want.ReadSE)
			if gv != wv || got.pos != want.pos || errText(gerr) != errText(werr) {
				t.Fatalf("op %d (%#x): got %d at bit %d (err %v), want %d at bit %d (err %v)",
					i, op, gv, got.pos, gerr, wv, want.pos, werr)
			}
		}
	})
}
