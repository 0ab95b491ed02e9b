package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/frame"
	"repro/internal/pixel"
	"repro/internal/video"
)

func TestZigZagIsPermutation(t *testing.T) {
	seen := map[int]bool{}
	for _, idx := range ZigZag {
		if idx < 0 || idx >= 64 || seen[idx] {
			t.Fatalf("zigzag not a permutation: %v", ZigZag)
		}
		seen[idx] = true
	}
	// Spot-check the canonical start of the JPEG scan.
	want := []int{0, 1, 8, 16, 9, 2, 3, 10}
	for i, w := range want {
		if ZigZag[i] != w {
			t.Errorf("ZigZag[%d] = %d, want %d", i, ZigZag[i], w)
		}
	}
	if ZigZag[63] != 63 {
		t.Errorf("ZigZag[63] = %d, want 63", ZigZag[63])
	}
}

func TestDCTRoundTrip(t *testing.T) {
	var src, freq, back Block
	for i := range src {
		src[i] = float64((i*37)%255) - 128
	}
	FDCT(&src, &freq)
	IDCT(&freq, &back)
	for i := range src {
		if math.Abs(src[i]-back[i]) > 1e-9 {
			t.Fatalf("DCT round trip error at %d: %v vs %v", i, src[i], back[i])
		}
	}
}

func TestDCTDCOfFlatBlock(t *testing.T) {
	var src, freq Block
	for i := range src {
		src[i] = 100
	}
	FDCT(&src, &freq)
	if math.Abs(freq[0]-800) > 1e-9 { // DC = 8 * mean for orthonormal 8x8
		t.Errorf("DC = %v, want 800", freq[0])
	}
	for i := 1; i < len(freq); i++ {
		if math.Abs(freq[i]) > 1e-9 {
			t.Fatalf("AC coefficient %d = %v for flat block", i, freq[i])
		}
	}
}

// TestIDCTFlat checks idctFlat against IDCT for DC-only blocks over the
// dequantised DC range of real streams and at the int32 extremes a
// corrupt one can reach. == treats +0 and -0 as equal, which is all the
// decoder needs: it adds a bias to each output before rounding.
func TestIDCTFlat(t *testing.T) {
	levels := []int32{math.MinInt32, math.MaxInt32}
	for l := int32(-2048); l <= 2048; l++ {
		levels = append(levels, l)
	}
	for _, l := range levels {
		var coef, out Block
		coef[0] = float64(l) * divisors(true, MinQScale)[0]
		IDCT(&coef, &out)
		want := idctFlat(coef[0])
		for i, v := range out {
			if v != want {
				t.Fatalf("dc %v: IDCT sample %d = %v, idctFlat = %v", coef[0], i, v, want)
			}
		}
	}
}

func TestDCTParseval(t *testing.T) {
	var src, freq Block
	for i := range src {
		src[i] = math.Sin(float64(i)) * 100
	}
	FDCT(&src, &freq)
	var es, ef float64
	for i := range src {
		es += src[i] * src[i]
		ef += freq[i] * freq[i]
	}
	if math.Abs(es-ef) > 1e-6 {
		t.Errorf("Parseval violated: %v vs %v", es, ef)
	}
}

func TestBitIORoundTrip(t *testing.T) {
	w := &BitWriter{}
	w.WriteBits(0b1011, 4)
	w.WriteUE(0)
	w.WriteUE(5)
	w.WriteUE(127)
	w.WriteSE(0)
	w.WriteSE(-3)
	w.WriteSE(17)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("bits = %b", v)
	}
	for _, want := range []uint32{0, 5, 127} {
		if v, err := r.ReadUE(); err != nil || v != want {
			t.Errorf("ReadUE = %d,%v want %d", v, err, want)
		}
	}
	for _, want := range []int32{0, -3, 17} {
		if v, err := r.ReadSE(); err != nil || v != want {
			t.Errorf("ReadSE = %d,%v want %d", v, err, want)
		}
	}
}

func TestBitReaderPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err == nil {
		t.Error("ReadBits past end did not fail")
	}
}

func TestBitIOPropertyRoundTrip(t *testing.T) {
	f := func(ues []uint16, ses []int16) bool {
		w := &BitWriter{}
		for _, v := range ues {
			w.WriteUE(uint32(v))
		}
		for _, v := range ses {
			w.WriteSE(int32(v))
		}
		r := NewBitReader(w.Bytes())
		for _, v := range ues {
			got, err := r.ReadUE()
			if err != nil || got != uint32(v) {
				return false
			}
		}
		for _, v := range ses {
			got, err := r.ReadSE()
			if err != nil || got != int32(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockEntropyRoundTrip(t *testing.T) {
	var levels, got [64]int32
	levels[0] = 50
	levels[5] = -3
	levels[63] = 1
	w := &BitWriter{}
	writeBlock(w, &levels)
	if _, err := readBlock(NewBitReader(w.Bytes()), &got); err != nil {
		t.Fatal(err)
	}
	if got != levels {
		t.Errorf("entropy round trip: %v vs %v", got, levels)
	}
}

func TestPictureConversionRoundTrip(t *testing.T) {
	f := frame.New(17, 13) // odd dims exercise subsampling edges
	for i := range f.Pix {
		f.Pix[i] = pixel.Gray(uint8(i * 5 % 256))
	}
	g := FromFrame(f).ToFrame()
	if g.W != f.W || g.H != f.H {
		t.Fatalf("shape changed: %dx%d", g.W, g.H)
	}
	if psnr := f.PSNR(g); psnr < 40 {
		t.Errorf("conversion PSNR = %v dB, want > 40 (gray content)", psnr)
	}
}

func clip(t *testing.T) *video.Clip {
	t.Helper()
	return video.MustNew("codec-test", 48, 32, 10, 5, []video.SceneSpec{
		{Frames: 6, BaseLuma: 0.25, LumaSpread: 0.2, MaxLuma: 0.9, HighlightFrac: 0.02, Chroma: 0.5, Motion: 1.5},
		{Frames: 4, BaseLuma: 0.6, LumaSpread: 0.2, MaxLuma: 1.0, HighlightFrac: 0.2, Chroma: 0.4, Motion: 0.5},
	})
}

func TestEncodeDecodeSequence(t *testing.T) {
	c := clip(t)
	enc, err := NewEncoder(c.W, c.H, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(c.W, c.H)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.TotalFrames(); i++ {
		src := c.Frame(i)
		ef, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		wantType := PFrame
		if i%5 == 0 {
			wantType = IFrame
		}
		if ef.Type != wantType {
			t.Errorf("frame %d type %v, want %v", i, ef.Type, wantType)
		}
		got, err := dec.Decode(ef)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if psnr := src.PSNR(got); psnr < 26 {
			t.Errorf("frame %d PSNR = %.1f dB, want >= 26", i, psnr)
		}
	}
}

func TestEncoderCompresses(t *testing.T) {
	c := clip(t)
	enc, _ := NewEncoder(c.W, c.H, 10, 6)
	raw := c.W * c.H * 3
	var total int
	n := c.TotalFrames()
	for i := 0; i < n; i++ {
		ef, err := enc.Encode(c.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		total += ef.Size()
	}
	ratio := float64(raw*n) / float64(total)
	if ratio < 4 {
		t.Errorf("compression ratio %.1f, want >= 4", ratio)
	}
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	c := video.MustNew("still", 48, 32, 10, 9, []video.SceneSpec{
		{Frames: 4, BaseLuma: 0.3, LumaSpread: 0.15, MaxLuma: 0.7, HighlightFrac: 0.01, Motion: 0.2},
	})
	enc, _ := NewEncoder(c.W, c.H, 100, 4)
	iFrame, err := enc.Encode(c.Frame(0))
	if err != nil {
		t.Fatal(err)
	}
	pFrame, err := enc.Encode(c.Frame(1))
	if err != nil {
		t.Fatal(err)
	}
	if pFrame.Size() >= iFrame.Size() {
		t.Errorf("P frame (%dB) not smaller than I frame (%dB) on low-motion content",
			pFrame.Size(), iFrame.Size())
	}
}

func TestQScaleTradesQualityForSize(t *testing.T) {
	c := clip(t)
	src := c.Frame(0)
	encode := func(q int) (*EncodedFrame, *frame.Frame) {
		enc, _ := NewEncoder(c.W, c.H, 1, q)
		ef, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		dec, _ := NewDecoder(c.W, c.H)
		out, err := dec.Decode(ef)
		if err != nil {
			t.Fatal(err)
		}
		return ef, out
	}
	fine, fineOut := encode(2)
	coarse, coarseOut := encode(16)
	if coarse.Size() >= fine.Size() {
		t.Errorf("coarse q (%dB) not smaller than fine q (%dB)", coarse.Size(), fine.Size())
	}
	if src.PSNR(coarseOut) >= src.PSNR(fineOut) {
		t.Error("coarse quantisation did not lose quality")
	}
}

func TestEncoderValidation(t *testing.T) {
	if _, err := NewEncoder(0, 10, 1, 4); err == nil {
		t.Error("accepted zero width")
	}
	if _, err := NewEncoder(10, 10, 0, 4); err == nil {
		t.Error("accepted zero gop")
	}
	enc, _ := NewEncoder(16, 16, 1, 4)
	if _, err := enc.Encode(frame.New(8, 8)); err == nil {
		t.Error("accepted mismatched frame size")
	}
}

func TestDecoderErrors(t *testing.T) {
	dec, _ := NewDecoder(16, 16)
	if _, err := dec.Decode(&EncodedFrame{Type: PFrame, QScale: 4}); err == nil {
		t.Error("P frame without reference accepted")
	}
	if _, err := dec.Decode(&EncodedFrame{Type: FrameType(9), QScale: 4}); err == nil {
		t.Error("unknown frame type accepted")
	}
	if _, err := dec.Decode(&EncodedFrame{Type: IFrame, QScale: 0}); err == nil {
		t.Error("invalid qscale accepted")
	}
	if _, err := dec.Decode(&EncodedFrame{Type: IFrame, QScale: 4, Data: []byte{0}}); err == nil {
		t.Error("truncated I frame accepted")
	}
}

// TestFailedDecodeKeepsReference feeds one decoder an I-frame, a P-frame
// cut short so that it fails, then the intact P-frames, and another the
// same stream without the failed frame: their output must be identical,
// and the failed DecodeInto must leave its destination as it was.
func TestFailedDecodeKeepsReference(t *testing.T) {
	c := clip(t)
	enc, _ := NewEncoder(c.W, c.H, 8, 4)
	var frames []*EncodedFrame
	for i := 0; i < 4; i++ {
		ef, err := enc.Encode(c.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, ef)
	}
	if frames[1].Type != PFrame {
		t.Fatalf("frame 1 is %v, want a P frame", frames[1].Type)
	}
	corrupt := &EncodedFrame{Type: PFrame, QScale: frames[1].QScale, Data: frames[1].Data[:len(frames[1].Data)/2]}

	clean, _ := NewDecoder(c.W, c.H)
	faulted, _ := NewDecoder(c.W, c.H)
	want, got := frame.New(c.W, c.H), frame.New(c.W, c.H)
	for i, ef := range frames {
		if err := clean.DecodeInto(ef, want); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 1 {
			before := got.Clone()
			if err := faulted.DecodeInto(corrupt, got); err == nil {
				t.Fatal("truncated P frame decoded without error")
			}
			if !got.Equal(before) {
				t.Error("failed DecodeInto wrote into its destination")
			}
		}
		if err := faulted.DecodeInto(ef, got); err != nil {
			t.Fatalf("frame %d after the failed decode: %v", i, err)
		}
		if !got.Equal(want) {
			t.Errorf("frame %d differs after a failed decode", i)
		}
	}
}

// Property: the decoder never panics on corrupted payloads.
func TestDecodeCorruptionNeverPanicsProperty(t *testing.T) {
	c := clip(t)
	enc, _ := NewEncoder(c.W, c.H, 2, 4)
	var frames []*EncodedFrame
	for i := 0; i < 4; i++ {
		ef, err := enc.Encode(c.Frame(i))
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, ef)
	}
	f := func(which, pos uint16, val uint8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		src := frames[int(which)%len(frames)]
		data := append([]byte(nil), src.Data...)
		if len(data) > 0 {
			data[int(pos)%len(data)] ^= val
		}
		dec, _ := NewDecoder(c.W, c.H)
		// Prime a reference so P frames decode.
		if ref, err := dec.Decode(frames[0]); err != nil || ref == nil {
			return true
		}
		dec.Decode(&EncodedFrame{Type: src.Type, QScale: src.QScale, Data: data})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: quantize/dequantize error is bounded by half a step.
func TestQuantRoundTripBoundProperty(t *testing.T) {
	f := func(vals [64]int16, qRaw uint8, intra bool) bool {
		q := int(qRaw)%MaxQScale + 1
		var coef Block
		for i, v := range vals {
			coef[i] = float64(v % 1024)
		}
		var levels [64]int32
		var back Block
		quantize(&coef, &levels, intra, q)
		dequantize(&levels, &back, intra, q)
		for i := range coef {
			step := float64(interQuant[i]*q) / 8
			if intra {
				step = float64(intraQuant[i]*q) / 8
				if i == 0 {
					step = 8
				}
			}
			if math.Abs(coef[i]-back[i]) > step/2+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHalfPelSample(t *testing.T) {
	p := NewPlane(4, 4)
	p.Set(0, 0, 100)
	p.Set(1, 0, 120)
	p.Set(0, 1, 140)
	p.Set(1, 1, 160)
	cases := []struct {
		hx, hy int
		want   int
	}{
		{0, 0, 100}, // integer position
		{1, 0, 110}, // horizontal half
		{0, 1, 120}, // vertical half
		{1, 1, 130}, // diagonal half: (100+120+140+160+2)/4
		{2, 0, 120}, // next integer
	}
	for _, c := range cases {
		if got := halfPelSample(p, c.hx, c.hy); got != c.want {
			t.Errorf("halfPelSample(%d,%d) = %d, want %d", c.hx, c.hy, got, c.want)
		}
	}
	// Negative half-pel positions clamp to the edge without panicking.
	if got := halfPelSample(p, -1, 0); got != 100 {
		t.Errorf("halfPelSample(-1,0) = %d, want clamped 100", got)
	}
}

func TestHalfPelImprovesOrMatchesSubPixelMotion(t *testing.T) {
	// Content drifting by non-integer amounts per frame is where
	// half-pel compensation pays: the P frame should stay small and
	// accurate. Compare bit cost against a still clip baseline sanity.
	c := video.MustNew("subpel", 48, 32, 10, 23, []video.SceneSpec{
		{Frames: 6, BaseLuma: 0.35, LumaSpread: 0.25, MaxLuma: 0.9, HighlightFrac: 0.01, Motion: 0.5},
	})
	enc, _ := NewEncoder(c.W, c.H, 100, 4)
	dec, _ := NewDecoder(c.W, c.H)
	for i := 0; i < c.TotalFrames(); i++ {
		src := c.Frame(i)
		ef, err := enc.Encode(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(ef)
		if err != nil {
			t.Fatal(err)
		}
		if psnr := src.PSNR(got); psnr < 28 {
			t.Errorf("frame %d PSNR = %.1f with sub-pixel motion", i, psnr)
		}
	}
}

// halfPelSample is the reference model of the half-pel prediction: it
// reads p at half-pel position (hx, hy) (units of half pixels) through
// Plane.At's clamping, bilinearly averaging the straddled samples. The
// padded prediction (halfPelRow over padded planes) must match it.
func halfPelSample(p *Plane, hx, hy int) int {
	x, y := hx>>1, hy>>1
	fx, fy := hx&1, hy&1
	switch {
	case fx == 0 && fy == 0:
		return int(p.At(x, y))
	case fy == 0:
		return (int(p.At(x, y)) + int(p.At(x+1, y)) + 1) / 2
	case fx == 0:
		return (int(p.At(x, y)) + int(p.At(x, y+1)) + 1) / 2
	default:
		return (int(p.At(x, y)) + int(p.At(x+1, y)) +
			int(p.At(x, y+1)) + int(p.At(x+1, y+1)) + 2) / 4
	}
}

// TestRestartedEncoderMatchesFresh: after Restart, an encoder that has
// coded another GOP codes the next one byte for byte as a new encoder
// does. The GOPs go in reverse order, partial last GOP first, so the
// restarted encoder always carries state from a later GOP.
func TestRestartedEncoderMatchesFresh(t *testing.T) {
	const gop = 5
	for _, sz := range [][2]int{{8, 8}, {37, 29}, {48, 32}} {
		w, h := sz[0], sz[1]
		c := goldenClip(w, h)
		n := c.TotalFrames()
		reused, err := NewEncoder(w, h, gop, 4)
		if err != nil {
			t.Fatal(err)
		}
		for start := (n - 1) / gop * gop; start >= 0; start -= gop {
			fresh, err := NewEncoder(w, h, gop, 4)
			if err != nil {
				t.Fatal(err)
			}
			reused.Restart()
			for i := start; i < min(start+gop, n); i++ {
				want, err := fresh.Encode(c.Frame(i))
				if err != nil {
					t.Fatal(err)
				}
				got, err := reused.Encode(c.Frame(i))
				if err != nil {
					t.Fatal(err)
				}
				if got.Type != want.Type || got.QScale != want.QScale || !bytes.Equal(got.Data, want.Data) {
					t.Fatalf("%dx%d frame %d: restarted encoder coded %v/%d bytes, fresh %v/%d",
						w, h, i, got.Type, len(got.Data), want.Type, len(want.Data))
				}
			}
		}
	}
}

// TestStripBoundNeverExceedsSAD: the successive-elimination bound of
// every candidate is exactly Σ|cur strip − ref strip| and never exceeds
// the candidate's SAD, over random planes of random sizes and every
// vector of the search window, so candidates reaching into the padded
// margin are covered. Pruning by it therefore cannot skip a winner.
func TestStripBoundNeverExceedsSAD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	stripSum := func(pix []uint8, o, stride int) int {
		sum := 0
		for y := 0; y < stripRows; y++ {
			for x := 0; x < MBSize; x++ {
				sum += int(pix[o+y*stride+x])
			}
		}
		return sum
	}
	var checked, tight int
	for trial := 0; trial < 60; trial++ {
		w, h := 1+rng.Intn(60), 1+rng.Intn(40)
		cur, ref := NewPlane(w, h), NewPlane(w, h)
		// A narrow sample range makes strip sums close and the bound
		// tight; a wide one makes it loose.
		lo := rng.Intn(256)
		span := 1 + rng.Intn(256-lo)
		for i := range cur.Pix {
			cur.Pix[i] = uint8(lo + rng.Intn(span))
			ref.Pix[i] = uint8(lo + rng.Intn(span))
		}
		var s searcher
		s.load(cur, ref)
		s.buildStrips()
		stride := s.cur.stride
		for my := 0; my < h; my += MBSize {
			for mx := 0; mx < w; mx += MBSize {
				co := s.cur.at(mx, my)
				cs := s.curStrips(co)
				for vy := -SearchRange; vy <= SearchRange; vy++ {
					for vx := -SearchRange; vx <= SearchRange; vx++ {
						ro := co + vy*stride + vx
						want := 0
						for k := 0; k < MBSize/stripRows; k++ {
							o := k * stripRows * stride
							want += absInt(stripSum(s.cur.pix, co+o, stride) - stripSum(s.ref.pix, ro+o, stride))
						}
						lb := s.stripBound(&cs, ro)
						if lb != want {
							t.Fatalf("%dx%d mb (%d,%d) v (%d,%d): bound %d, want %d", w, h, mx, my, vx, vy, lb, want)
						}
						sad := sadFull(s.cur.pix, s.ref.pix, co, ro, stride, 0, math.MaxInt)
						if lb > sad {
							t.Fatalf("%dx%d mb (%d,%d) v (%d,%d): bound %d exceeds SAD %d", w, h, mx, my, vx, vy, lb, sad)
						}
						checked++
						if lb*2 > sad {
							tight++
						}
					}
				}
			}
		}
	}
	// The bound must also be worth computing: on some candidates it
	// comes within a factor two of the SAD.
	if tight == 0 {
		t.Errorf("bound never within 2x of the SAD over %d candidates", checked)
	}
}
