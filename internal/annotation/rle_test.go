package annotation

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// hostileHeader builds a syntactically valid track header for one quality
// level, fps 24 and two scene records, leaving the caller to append the
// single RLE column.
func hostileHeader() []byte {
	var b []byte
	b = append(b, 'A', 'N', 'B', '1')
	b = append(b, 1)   // quality count
	b = append(b, 128) // quality budget
	b = binary.BigEndian.AppendUint16(b, 24)
	b = binary.BigEndian.AppendUint32(b, 2) // record count
	b = binary.AppendUvarint(b, 5)          // record 0 frames
	b = binary.AppendUvarint(b, 7)          // record 1 frames
	return b
}

// TestDecodeDegenerateRLE pins the decoder's behavior on hostile or
// degenerate RLE columns: every case must fail with ErrCorrupt quickly
// instead of over-allocating. The MaxInt64 case is the regression for the
// signed-overflow bug where `len(col)+n > want` wrapped negative and let
// the run through.
func TestDecodeDegenerateRLE(t *testing.T) {
	cases := []struct {
		name string
		col  func() []byte
	}{
		{"run MaxInt64 after partial fill", func() []byte {
			var b []byte
			b = binary.BigEndian.AppendUint32(b, 2) // pair count
			b = binary.AppendUvarint(b, 1)
			b = append(b, 0)
			b = binary.AppendUvarint(b, math.MaxInt64)
			b = append(b, 1)
			return b
		}},
		{"single run longer than 2^31", func() []byte {
			var b []byte
			b = binary.BigEndian.AppendUint32(b, 1)
			b = binary.AppendUvarint(b, 1<<31+5)
			b = append(b, 9)
			return b
		}},
		{"empty column despite records", func() []byte {
			var b []byte
			b = binary.BigEndian.AppendUint32(b, 0)
			return b
		}},
		{"zero-length run", func() []byte {
			var b []byte
			b = binary.BigEndian.AppendUint32(b, 1)
			b = binary.AppendUvarint(b, 0)
			b = append(b, 3)
			return b
		}},
		{"column longer than records", func() []byte {
			var b []byte
			b = binary.BigEndian.AppendUint32(b, 1)
			b = binary.AppendUvarint(b, 3)
			b = append(b, 3)
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append(hostileHeader(), tc.col()...)
			tr, err := Decode(data)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = (%v, %v), want ErrCorrupt", tr, err)
			}
		})
	}
}

// TestEmptyTrackRoundTrip: a track with zero records encodes columns with
// pair-count 0, which is the one place an empty column is legitimate.
func TestEmptyTrackRoundTrip(t *testing.T) {
	tr := &Track{FPS: 30, Quality: []float64{0, 0.1}}
	dec, err := Decode(tr.Encode())
	if err != nil {
		t.Fatalf("Decode(empty track) error: %v", err)
	}
	if len(dec.Records) != 0 || dec.FPS != 30 || len(dec.Quality) != 2 {
		t.Fatalf("empty track round-trip mismatch: %+v", dec)
	}
}

// TestDecodeRejectsNoQualityLevels: a track needs at least one quality
// level, or there is no target to play at; players index column 0.
func TestDecodeRejectsNoQualityLevels(t *testing.T) {
	for _, tr := range []*Track{
		{FPS: 30},
		{FPS: 30, Records: []Record{{Frames: 5}, {Frames: 7}}},
	} {
		if dec, err := Decode(tr.Encode()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode(%d records, no quality levels) = (%+v, %v), want ErrCorrupt", len(tr.Records), dec, err)
		}
	}
}
