package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/video"
)

// goldenSizes spans frames smaller than one macroblock, exact macroblock
// multiples, odd sizes with partial edge macroblocks in both axes, and a
// frame wide enough to have interior macroblocks whose search window
// stays inside the plane.
var goldenSizes = [][2]int{
	{8, 8}, {16, 16}, {32, 24}, {37, 29}, {48, 32}, {50, 30}, {64, 48}, {160, 120},
}

// goldenClip is a multi-scene, high-motion clip: drift of several pixels
// per frame pushes the best vectors toward the search-window edge, and
// both scene cuts (frames 6 and 11) land on P-frames at GOP 8, so every
// macroblock there runs the search.
func goldenClip(w, h int) *video.Clip {
	return video.MustNew(fmt.Sprintf("golden-%dx%d", w, h), w, h, 10, int64(w*1000+h), []video.SceneSpec{
		{Frames: 6, BaseLuma: 0.3, LumaSpread: 0.5, MaxLuma: 0.95, HighlightFrac: 0.03, Chroma: 0.6, Motion: 3.5, Flicker: 0.02, Hue: 0.2},
		{Frames: 5, BaseLuma: 0.55, LumaSpread: 0.8, MaxLuma: 1.0, HighlightFrac: 0.1, Chroma: 0.9, Motion: 7.25, Hue: 0.7},
		{Frames: 5, BaseLuma: 0.2, LumaSpread: 0.3, MaxLuma: 0.8, HighlightFrac: 0.01, Chroma: 0.3, Motion: 1.5, Flicker: 0.05, Hue: 0.45},
	})
}

// encoderGolden is the SHA-256 over every encoded frame's type, qscale
// and payload of goldenClip at GOP 8, qscale 4. A change to any of these
// is a change to the bitstream; the decoder must then be re-verified and
// the hash re-recorded deliberately.
var encoderGolden = map[[2]int]string{
	{8, 8}:     "5996f1f4283980787cc64f4fceddaf9b64aba2cf516de30f2c9c7db1ce392024",
	{16, 16}:   "7ae99dc8f81ed10c6d13527868ad2b12a242388df53cb268527329912c344726",
	{32, 24}:   "8fec368b058f46bcc32c82865412a9f57300f7f19cab20729c524f473743cc0e",
	{37, 29}:   "fcc70032bd077e7091d7073f170238a0ced4b38b2f3ee63ded833f48949c3a8d",
	{48, 32}:   "e610d71741fb54d830c4a0c3d0ce21d4327eb639b5e0b3238d8ea757f339c37a",
	{50, 30}:   "271bc2b35ab66dfa45a103bf99f67b51116baf1b0533f4c19a3df0a9d9fba173",
	{64, 48}:   "b632a08a0ab69feb04775fc07d3ea71e1607d71b1dda8e77459a1f1ba23595b7",
	{160, 120}: "c6907a1d5bf38bada4326881c08b3960e7bb367cd456398ceec8b1b2a637b005",
}

func encodeDigest(t *testing.T, w, h int) string {
	t.Helper()
	c := goldenClip(w, h)
	enc, err := NewEncoder(w, h, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	var hdr [6]byte
	for i := 0; i < c.TotalFrames(); i++ {
		ef, err := enc.Encode(c.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		hdr[0] = byte(ef.Type)
		hdr[1] = byte(ef.QScale)
		binary.BigEndian.PutUint32(hdr[2:], uint32(len(ef.Data)))
		sum.Write(hdr[:])
		sum.Write(ef.Data)
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// TestEncoderGolden pins the encoder's output bytes. Downstream goldens
// (zero-copy streams, video renders) are recorded from the encoder and
// would silently follow a changed one; this test would not.
func TestEncoderGolden(t *testing.T) {
	for _, sz := range goldenSizes {
		got := encodeDigest(t, sz[0], sz[1])
		if want := encoderGolden[sz]; got != want {
			t.Errorf("%dx%d: encoder digest %s, want %s", sz[0], sz[1], got, want)
		}
	}
}

// refSearchMotion is the reference motion search: the same exhaustive
// full-pel search and half-pel refinement as searcher.search, reading
// the unpadded planes through Plane.At's clamping, with no early exit.
func refSearchMotion(cur, ref *Plane, mx, my int) motionVector {
	bestFull := motionVector{}
	bestSAD := refMBSAD(cur, ref, mx, my, 0, 0)
	for vy := -SearchRange; vy <= SearchRange; vy++ {
		for vx := -SearchRange; vx <= SearchRange; vx++ {
			if vx == 0 && vy == 0 {
				continue
			}
			s := refMBSAD(cur, ref, mx, my, vx, vy) + 4*(absInt(vx)+absInt(vy))
			if s < bestSAD {
				bestSAD = s
				bestFull = motionVector{vx, vy}
			}
		}
	}
	best := motionVector{2 * bestFull.X, 2 * bestFull.Y}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			hv := motionVector{2*bestFull.X + dx, 2*bestFull.Y + dy}
			if s := refMBSADHalf(cur, ref, mx, my, hv.X, hv.Y); s < bestSAD {
				bestSAD = s
				best = hv
			}
		}
	}
	return best
}

func refMBSAD(cur, ref *Plane, mx, my, vx, vy int) int {
	sad := 0
	for y := 0; y < MBSize; y++ {
		for x := 0; x < MBSize; x++ {
			sad += absInt(int(cur.At(mx+x, my+y)) - int(ref.At(mx+x+vx, my+y+vy)))
		}
	}
	return sad
}

func refMBSADHalf(cur, ref *Plane, mx, my, hvx, hvy int) int {
	sad := 0
	for y := 0; y < MBSize; y++ {
		for x := 0; x < MBSize; x++ {
			sad += absInt(int(cur.At(mx+x, my+y)) - halfPelSample(ref, 2*(mx+x)+hvx, 2*(my+y)+hvy))
		}
	}
	return sad
}

// TestPaddedSearchMatchesReference runs the golden clips through the
// encoder and, before every P-frame, checks each macroblock's zero-vector
// SAD and chosen vector against the clamped reference search: padding
// and early exit must change no decision, at any frame size.
func TestPaddedSearchMatchesReference(t *testing.T) {
	var mbs, moved, halfPel int
	for _, sz := range goldenSizes {
		w, h := sz[0], sz[1]
		c := goldenClip(w, h)
		enc, err := NewEncoder(w, h, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		var s searcher
		for i := 0; i < c.TotalFrames(); i++ {
			f := c.Frame(i)
			if i%enc.GOP != 0 {
				cur := FromFrame(f)
				s.load(cur.Y, enc.ref.Y)
				for my := 0; my < h; my += MBSize {
					for mx := 0; mx < w; mx += MBSize {
						zero := s.zeroSAD(mx, my)
						if want := refMBSAD(cur.Y, enc.ref.Y, mx, my, 0, 0); zero != want {
							t.Fatalf("%dx%d frame %d mb (%d,%d): zero SAD %d, want %d", w, h, i, mx, my, zero, want)
						}
						got := s.search(mx, my, zero)
						want := refSearchMotion(cur.Y, enc.ref.Y, mx, my)
						if got != want {
							t.Fatalf("%dx%d frame %d mb (%d,%d): vector %v, want %v", w, h, i, mx, my, got, want)
						}
						mbs++
						if want != (motionVector{}) {
							moved++
						}
						if want.X&1 != 0 || want.Y&1 != 0 {
							halfPel++
						}
					}
				}
			}
			if _, err := enc.Encode(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The clips must exercise the search, not just the zero vector.
	if moved < mbs/4 || halfPel == 0 {
		t.Errorf("%d macroblocks, %d with a nonzero vector, %d half-pel: clips too static to test the search", mbs, moved, halfPel)
	}
}
