package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/frame"
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

// decoderGoldenQScales are the quantiser scales TestDecoderGolden decodes
// goldenClip at: the finest, the serving default and two coarser ones.
var decoderGoldenQScales = [...]int{1, 4, 12, 31}

// decoderGolden[size][i] is the SHA-256 over the decoded RGB of every
// frame of goldenClip at GOP 8, qscale decoderGoldenQScales[i]. A change
// to any of these is a change to the pixels a client shows; a faster
// decoder must reproduce them exactly.
var decoderGolden = map[[2]int][len(decoderGoldenQScales)]string{
	{8, 8}: {
		"3983902eb5dc2b46474da86ce37d71796fc7f3ddf56a49ba506f35be113dd0e7",
		"03477d4d73ea480b7f968652e24ec3ace49873ed66178db33af4dd0b5b1d4fd3",
		"c3d58b73064a379f602942e7ace07a51a4162d1c5f9dde8bd7a2a57ce1f16af9",
		"c032c2a0ec563caac111129c471d0a0e9b9e457de2b1b919ab5b6e6781a97fc2",
	},
	{16, 16}: {
		"8b1de53e17035d02659a88b4e974b50ad4375e05af69f291402f337f7ff617d2",
		"4ef4a3af17fe29ccf3c0e1bfd37bb9d7753b4586513e40e584aa38d1dbef7e4a",
		"0dff2186581bfb7b98fe46bfe3a51b48a04c9937ae7f4d8ed0707f7501c1afb1",
		"64615a983858f0ee99cb264e7d33956fbfb97ecd0b00115d5307b236bc089b22",
	},
	{32, 24}: {
		"762eea448b804a35e0dc32549a38869397719ac5229b92e6a684232affa4938a",
		"fa0a0d832621e40d6c24108e4ea6af8628184cb455cc8f9f7713ea11f212b51f",
		"16291d832bfb973e4dd72c9673a68dd1adf5b7768039c8093b6ac51c320ea3d7",
		"04f36daad4100d770aad85cfc9c5d38a7a02c1ed9ea64bb22a35b4352b884d76",
	},
	{37, 29}: {
		"f188245ef7ccfd2a580e1f18372dfbad3e063dd7dbc3b046528c2d714593b623",
		"b6583fe0666bb1d148266c097222a741878e58f62fce21ad51a5df8110415045",
		"da0cf71060583b4b1b2fb15aa2267208a0297921a6fc8b6896a4c43cade78d93",
		"80812e0680a116ff01b448041c5544c1a50748cc008a5392ba84de4ca2b2a1e2",
	},
	{48, 32}: {
		"f668c07dbedfd35e84bc330d77846c52c530c5ebf2e0ef2665edd3aeafb69213",
		"fc6368e1f54014deb48d81541d802f1ae9109748bdd38e024e1077f0582b1686",
		"89e9cfa92c8684d2168dac7cf8f32bd6a23343083737969422d244ea3ccc1315",
		"0bff63f42db4651ba333680f0fd7feefffd6a3d66842c2dc2c3c376141eb9df0",
	},
	{50, 30}: {
		"ae4926407ef59aee49c93d46c5dc7b6fb34e30640408fdc117383b0461809c33",
		"696eb0a9fd754f0ae07c8881a67119e5a2ae1e4e125a95d0a470d8ffca2dcb43",
		"dc2c75c2bfabc91a076e0ca460aa5a8e5bbd4372cce1d37349f0cf4336fc9287",
		"129761b071bc93ff06699f690378f5adee3fb3b634ae5680e72658bb783bb4af",
	},
	{64, 48}: {
		"f4ed6b4418174452cfd866f47298346b12293ee907de9d6b422ea38932e800df",
		"b2197817148dc53d1f9443fc1a17dd8e7d75fb8f1737ecd4d2e9140398b1cec3",
		"cafd74cf9f6a7682131a479007015f3fb0bb1008711357d3c09fa67da8ff6ad8",
		"673dcf7687068d55902f71ab9bd10fc8c1f1fa5d8f9087a8dac6f50a61110707",
	},
	{160, 120}: {
		"3bda705e844f6574d9edbb3268f58b41d32506747443b017d1ab36815d82e230",
		"9f2e3143e4032d6b4fbdb90dc79dd76d710716af44fe0e6f3866a769ad4d0300",
		"210d703ab068a8513a6897c245e6b80c8b5226c854aa8ea843964f9a8f806e31",
		"ccc95d4133f613365dd823876eacf97f7bff7f07f1b6026c46aa4e69c8d02ef4",
	},
}

// hashFrame writes f's RGB samples, row-major, into h.
func hashFrame(h hash.Hash, f *frame.Frame) {
	buf := make([]byte, 0, 3*len(f.Pix))
	for _, p := range f.Pix {
		buf = append(buf, p.R, p.G, p.B)
	}
	h.Write(buf)
}

func frameDigest(f *frame.Frame) string {
	h := sha256.New()
	hashFrame(h, f)
	return hex.EncodeToString(h.Sum(nil))
}

// TestDecoderGolden pins the decoder's output pixels for every golden
// size at several quantiser scales. DecodeInto into one reused frame
// must give the same pixels as Decode.
func TestDecoderGolden(t *testing.T) {
	for _, sz := range goldenSizes {
		w, h := sz[0], sz[1]
		c := goldenClip(w, h)
		for qi, q := range decoderGoldenQScales {
			enc, err := NewEncoder(w, h, 8, q)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := NewDecoder(w, h)
			if err != nil {
				t.Fatal(err)
			}
			into, err := NewDecoder(w, h)
			if err != nil {
				t.Fatal(err)
			}
			reused := frame.New(w, h)
			sum := sha256.New()
			var kept []*frame.Frame
			var keptDigests []string
			for i := 0; i < c.TotalFrames(); i++ {
				ef, err := enc.Encode(c.Frame(i))
				if err != nil {
					t.Fatal(err)
				}
				f, err := dec.Decode(ef)
				if err != nil {
					t.Fatalf("%dx%d q%d frame %d: %v", w, h, q, i, err)
				}
				if err := into.DecodeInto(ef, reused); err != nil {
					t.Fatalf("%dx%d q%d frame %d: DecodeInto: %v", w, h, q, i, err)
				}
				if !reused.Equal(f) {
					t.Errorf("%dx%d q%d frame %d: DecodeInto differs from Decode", w, h, q, i)
				}
				hashFrame(sum, f)
				kept = append(kept, f)
				keptDigests = append(keptDigests, frameDigest(f))
			}
			// Frames returned by Decode are the caller's to keep (the
			// proxy's clip cache holds them): later decodes must not
			// write into them.
			for i, f := range kept {
				if got := frameDigest(f); got != keptDigests[i] {
					t.Errorf("%dx%d q%d: frame %d changed after later decodes", w, h, q, i)
				}
			}
			if got, want := hex.EncodeToString(sum.Sum(nil)), decoderGolden[sz][qi]; got != want {
				t.Errorf("%dx%d q%d: decoder digest %s, want %s", w, h, q, got, want)
			}
		}
	}
}
