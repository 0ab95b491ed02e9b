package codec

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/frame"
)

// FrameType distinguishes intra-coded and predicted frames.
type FrameType uint8

const (
	// IFrame is intra coded: decodable without a reference.
	IFrame FrameType = iota
	// PFrame is predicted from the previous decoded frame with
	// per-macroblock motion compensation.
	PFrame
)

func (t FrameType) String() string {
	switch t {
	case IFrame:
		return "I"
	case PFrame:
		return "P"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// MBSize is the motion-compensation macroblock edge (16×16 luma).
const MBSize = 16

// SearchRange is the motion search window radius in pixels.
const SearchRange = 8

// skipSADThreshold is the per-macroblock luma SAD below which a zero-mv
// macroblock is coded as skipped.
const skipSADThreshold = 2 * MBSize * MBSize

// EncodedFrame is one compressed frame.
type EncodedFrame struct {
	Type   FrameType
	QScale int
	Data   []byte
}

// Size returns the encoded payload size in bytes (header excluded).
func (e *EncodedFrame) Size() int { return len(e.Data) }

// Encoder compresses a frame sequence. The zero value is not usable; use
// NewEncoder.
type Encoder struct {
	W, H   int
	GOP    int // I-frame every GOP frames (>=1)
	QScale int
	ref    *Picture // last reconstructed picture (closed loop)
	count  int

	// Per-frame scratch, reused so a frame allocates only its output:
	// the frame being coded, the picture the next reconstruction goes
	// into (ref and spare swap every frame), the bit writer, and the
	// edge-padded luma planes the motion search reads.
	cur    *Picture
	spare  *Picture
	bw     BitWriter
	search searcher
}

// NewEncoder returns an encoder for w×h frames with an I-frame every gop
// frames at the given quantiser scale.
func NewEncoder(w, h, gop, qscale int) (*Encoder, error) {
	if err := validateDims(w, h); err != nil {
		return nil, err
	}
	if gop < 1 {
		return nil, fmt.Errorf("codec: gop %d < 1", gop)
	}
	return &Encoder{W: w, H: h, GOP: gop, QScale: clampQScale(qscale), cur: NewPicture(w, h)}, nil
}

// Encode compresses the next frame of the sequence.
func (e *Encoder) Encode(f *frame.Frame) (*EncodedFrame, error) {
	if f.W != e.W || f.H != e.H {
		return nil, fmt.Errorf("codec: frame %dx%d does not match encoder %dx%d",
			f.W, f.H, e.W, e.H)
	}
	fromFrameInto(f, e.cur)
	ft := PFrame
	if e.count%e.GOP == 0 || e.ref == nil {
		ft = IFrame
	}
	e.count++

	// Every sample of recon is rewritten below (storeBlock covers each
	// plane; each P macroblock is copied or fully reconstructed), so the
	// spare may still hold the picture from two frames back.
	recon := e.spare
	if recon == nil {
		recon = NewPicture(e.W, e.H)
	}
	w := &e.bw
	*w = BitWriter{buf: w.buf[:0]}
	if ft == IFrame {
		encodeIntraPlane(w, e.cur.Y, recon.Y, e.QScale)
		encodeIntraPlane(w, e.cur.Cb, recon.Cb, e.QScale)
		encodeIntraPlane(w, e.cur.Cr, recon.Cr, e.QScale)
	} else {
		e.search.load(e.cur.Y, e.ref.Y)
		encodePredicted(w, e.cur, e.ref, recon, &e.search, e.QScale)
	}
	e.ref, e.spare = recon, e.ref
	data := append([]byte(nil), w.Bytes()...)
	return &EncodedFrame{Type: ft, QScale: e.QScale, Data: data}, nil
}

// Decoder decompresses a frame sequence produced by Encoder.
type Decoder struct {
	W, H int
	ref  *Picture
}

// NewDecoder returns a decoder for w×h frames.
func NewDecoder(w, h int) (*Decoder, error) {
	if err := validateDims(w, h); err != nil {
		return nil, err
	}
	return &Decoder{W: w, H: h}, nil
}

// Decode decompresses the next frame.
func (d *Decoder) Decode(ef *EncodedFrame) (*frame.Frame, error) {
	q := ef.QScale
	if q < MinQScale || q > MaxQScale {
		return nil, fmt.Errorf("%w: qscale %d", ErrBitstream, q)
	}
	r := NewBitReader(ef.Data)
	pic := NewPicture(d.W, d.H)
	switch ef.Type {
	case IFrame:
		if err := decodeIntraPlane(r, pic.Y, q); err != nil {
			return nil, err
		}
		if err := decodeIntraPlane(r, pic.Cb, q); err != nil {
			return nil, err
		}
		if err := decodeIntraPlane(r, pic.Cr, q); err != nil {
			return nil, err
		}
	case PFrame:
		if d.ref == nil {
			return nil, fmt.Errorf("%w: P frame with no reference", ErrBitstream)
		}
		if err := decodePredicted(r, pic, d.ref, q); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", ErrBitstream, ef.Type)
	}
	d.ref = pic
	return pic.ToFrame(), nil
}

// --- intra coding ---

// encodeIntraPlane codes every 8×8 block of src and writes the
// reconstruction into rec (the encoder-side decoded picture). The DC
// coefficient is coded differentially against the previous block's DC
// (raster order within the plane), as neighbouring blocks share their
// average brightness.
func encodeIntraPlane(w *BitWriter, src, rec *Plane, qscale int) {
	var blk, coef Block
	var levels [BlockSize * BlockSize]int32
	prevDC := int32(0)
	for by := 0; by < src.H; by += BlockSize {
		for bx := 0; bx < src.W; bx += BlockSize {
			loadBlock(src, bx, by, &blk, 128)
			FDCT(&blk, &coef)
			quantize(&coef, &levels, true, qscale)
			trueDC := levels[0]
			levels[0] = trueDC - prevDC
			writeBlock(w, &levels)
			levels[0] = trueDC
			prevDC = trueDC
			dequantize(&levels, &coef, true, qscale)
			IDCT(&coef, &blk)
			storeBlock(rec, bx, by, &blk, 128)
		}
	}
}

func decodeIntraPlane(r *BitReader, dst *Plane, qscale int) error {
	var blk, coef Block
	var levels [BlockSize * BlockSize]int32
	prevDC := int32(0)
	for by := 0; by < dst.H; by += BlockSize {
		for bx := 0; bx < dst.W; bx += BlockSize {
			if err := readBlock(r, &levels); err != nil {
				return err
			}
			levels[0] += prevDC
			prevDC = levels[0]
			dequantize(&levels, &coef, true, qscale)
			IDCT(&coef, &blk)
			storeBlock(dst, bx, by, &blk, 128)
		}
	}
	return nil
}

// --- predicted coding ---

// Motion vectors are in half-pel units (the precision MPEG-1 uses): a
// vector of (3, -2) means 1.5 pixels right, 1 pixel up.
type motionVector struct{ X, Y int }

// halfPelSample reads the reference plane at half-pel position (hx, hy)
// (units of half pixels), bilinearly averaging the straddled samples.
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

// encodePredicted codes cur against ref into rec; s holds cur's and
// ref's luma, padded, for the motion search.
func encodePredicted(w *BitWriter, cur, ref, rec *Picture, s *searcher, qscale int) {
	for my := 0; my < cur.Y.H; my += MBSize {
		for mx := 0; mx < cur.Y.W; mx += MBSize {
			// Skip decision first: a static macroblock costs one SAD,
			// not a full motion search.
			sadZero := s.zeroSAD(mx, my)
			if sadZero < skipSADThreshold {
				w.WriteBit(1) // skip
				copyMB(rec, ref, mx, my)
				continue
			}
			mv := s.search(mx, my, sadZero)
			w.WriteBit(0)
			w.WriteSE(int32(mv.X))
			w.WriteSE(int32(mv.Y))
			// Luma: four 8×8 residual blocks.
			for dy := 0; dy < MBSize; dy += BlockSize {
				for dx := 0; dx < MBSize; dx += BlockSize {
					codeResidualBlock(w, cur.Y, ref.Y, rec.Y,
						mx+dx, my+dy, mv.X, mv.Y, qscale)
				}
			}
			// Chroma: one 8×8 block per component at half resolution;
			// the luma half-pel vector becomes a chroma half-pel vector
			// of half the magnitude.
			codeResidualBlock(w, cur.Cb, ref.Cb, rec.Cb,
				mx/2, my/2, mv.X/2, mv.Y/2, qscale)
			codeResidualBlock(w, cur.Cr, ref.Cr, rec.Cr,
				mx/2, my/2, mv.X/2, mv.Y/2, qscale)
		}
	}
}

func decodePredicted(r *BitReader, pic, ref *Picture, qscale int) error {
	for my := 0; my < pic.Y.H; my += MBSize {
		for mx := 0; mx < pic.Y.W; mx += MBSize {
			skip, err := r.ReadBit()
			if err != nil {
				return err
			}
			if skip == 1 {
				copyMB(pic, ref, mx, my)
				continue
			}
			mvx, err := r.ReadSE()
			if err != nil {
				return err
			}
			mvy, err := r.ReadSE()
			if err != nil {
				return err
			}
			if abs32(mvx) > 2*SearchRange+1 || abs32(mvy) > 2*SearchRange+1 {
				return fmt.Errorf("%w: motion vector (%d,%d) out of range", ErrBitstream, mvx, mvy)
			}
			for dy := 0; dy < MBSize; dy += BlockSize {
				for dx := 0; dx < MBSize; dx += BlockSize {
					if err := decodeResidualBlock(r, pic.Y, ref.Y,
						mx+dx, my+dy, int(mvx), int(mvy), qscale); err != nil {
						return err
					}
				}
			}
			if err := decodeResidualBlock(r, pic.Cb, ref.Cb,
				mx/2, my/2, int(mvx)/2, int(mvy)/2, qscale); err != nil {
				return err
			}
			if err := decodeResidualBlock(r, pic.Cr, ref.Cr,
				mx/2, my/2, int(mvx)/2, int(mvy)/2, qscale); err != nil {
				return err
			}
		}
	}
	return nil
}

// padMargin is the edge extension of the search planes on every side. A
// half-pel vector reads at most SearchRange+1 samples past the
// macroblock, bilinear neighbour included; the last sample is slack.
const padMargin = SearchRange + 2

// searcher runs the P-frame motion search over edge-padded copies of
// the current and reference luma. The padding replicates each plane's
// edge samples outward, which is exactly what Plane.At's clamping
// returns, so every candidate (including those reaching past the frame)
// reads plain rows, and every SAD equals the clamped one.
type searcher struct {
	stride   int
	cur, ref []uint8
}

// load fills the padded planes from cur and ref, which share dimensions.
func (s *searcher) load(cur, ref *Plane) {
	s.stride = cur.W + 2*padMargin + MBSize
	s.cur = padPlane(s.cur, cur, s.stride)
	s.ref = padPlane(s.ref, ref, s.stride)
}

// padPlane copies p into dst (reused when large enough) with padMargin
// samples of edge extension on every side, plus one macroblock more on
// the right and bottom so partial edge macroblocks read whole rows.
func padPlane(dst []uint8, p *Plane, stride int) []uint8 {
	n := stride * (p.H + 2*padMargin + MBSize)
	if cap(dst) < n {
		dst = make([]uint8, n)
	}
	dst = dst[:n]
	for o := 0; o < n; o += stride {
		sy := min(max(o/stride-padMargin, 0), p.H-1)
		src := p.Pix[sy*p.W : (sy+1)*p.W]
		row := dst[o : o+stride]
		for x := range row[:padMargin] {
			row[x] = src[0]
		}
		copy(row[padMargin:], src)
		right := row[padMargin+p.W:]
		for x := range right {
			right[x] = src[p.W-1]
		}
	}
	return dst
}

// at returns the offset of sample (x, y) in the padded planes.
func (s *searcher) at(x, y int) int { return (y+padMargin)*s.stride + x + padMargin }

// zeroSAD is the luma SAD of the macroblock at (mx, my) against the
// co-located reference macroblock.
func (s *searcher) zeroSAD(mx, my int) int {
	o := s.at(mx, my)
	return sadFull(s.cur, s.ref, o, o, s.stride, 0, math.MaxInt)
}

// search finds the motion vector minimising luma SAD at (mx,my): an
// exhaustive full-pel search over ±SearchRange followed by a half-pel
// refinement of the winner's eight neighbours. zero is the zero vector's
// SAD. A candidate replaces the best only when strictly smaller, so each
// one stops as soon as it reaches the best so far without changing the
// outcome. It returns the best half-pel vector.
func (s *searcher) search(mx, my, zero int) motionVector {
	co := s.at(mx, my)
	bestFull := motionVector{}
	bestSAD := zero
	for vy := -SearchRange; vy <= SearchRange; vy++ {
		for vx := -SearchRange; vx <= SearchRange; vx++ {
			if vx == 0 && vy == 0 {
				continue
			}
			// Bias toward shorter vectors to stabilise the field.
			bias := 4 * (absInt(vx) + absInt(vy))
			if sad := sadFull(s.cur, s.ref, co, co+vy*s.stride+vx, s.stride, bias, bestSAD); sad < bestSAD {
				bestSAD = sad
				bestFull = motionVector{vx, vy}
			}
		}
	}
	// Half-pel refinement around the full-pel winner.
	best := motionVector{2 * bestFull.X, 2 * bestFull.Y}
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			hv := motionVector{2*bestFull.X + dx, 2*bestFull.Y + dy}
			if sad := s.sadHalf(co, hv, bestSAD); sad < bestSAD {
				bestSAD = sad
				best = hv
			}
		}
	}
	return best
}

// sadFull adds to sad the SAD of the macroblocks at offsets co of cur
// and ro of ref, padded planes of the given stride. It stops at the end
// of the first row where the running total reaches limit: from there
// the candidate cannot win, and only that it lost matters.
//
// A row is read as two 64-bit words per plane and differenced four
// samples at a time in 16-bit lanes (see absDiffLanes). acc's lanes stay
// below 16·4·255 and their sum below 2^16, so no lane carries into the
// next.
func sadFull(cur, ref []uint8, co, ro, stride, sad, limit int) int {
	var acc uint64
	for y := 0; y < MBSize; y++ {
		c0 := binary.LittleEndian.Uint64(cur[co:])
		c1 := binary.LittleEndian.Uint64(cur[co+8:])
		r0 := binary.LittleEndian.Uint64(ref[ro:])
		r1 := binary.LittleEndian.Uint64(ref[ro+8:])
		acc += absDiffLanes(c0&lanesFF, r0&lanesFF) + absDiffLanes(c0>>8&lanesFF, r0>>8&lanesFF) +
			absDiffLanes(c1&lanesFF, r1&lanesFF) + absDiffLanes(c1>>8&lanesFF, r1>>8&lanesFF)
		if s := sad + int(acc*lanes01>>48); s >= limit {
			return s
		}
		co += stride
		ro += stride
	}
	return sad + int(acc*lanes01>>48)
}

// Masks over the four 16-bit lanes of a uint64.
const (
	lanes01  = 0x0001_0001_0001_0001
	lanesFF  = 0x00FF_00FF_00FF_00FF
	lanes100 = 0x0100_0100_0100_0100
)

// absDiffLanes returns |a-b| in each 16-bit lane, for lanes holding
// 0..255. Each lane of d is 256+a-b, in 1..511, so nothing borrows
// across lanes; bit 8 of a lane is set exactly when a >= b, and
// otherwise b-a = 256-d = (d^0xFF)+1.
func absDiffLanes(a, b uint64) uint64 {
	d := a + lanes100 - b
	lt := d>>8&lanes01 ^ lanes01
	return (d&lanesFF ^ lt*0xFF) + lt
}

// sadHalf is sadFull, with no bias, for the macroblock at offset co and
// half-pel vector hv. It predicts as halfPelSample does, with that
// function's four averaging cases written out per row.
func (s *searcher) sadHalf(co int, hv motionVector, limit int) int {
	stride := s.stride
	ro := co + (hv.Y>>1)*stride + hv.X>>1
	fx, fy := hv.X&1, hv.Y&1
	sad := 0
	for y := 0; y < MBSize; y++ {
		c := (*[MBSize]uint8)(s.cur[co : co+MBSize])
		r0 := (*[MBSize + 1]uint8)(s.ref[ro : ro+MBSize+1])
		r1 := (*[MBSize + 1]uint8)(s.ref[ro+stride : ro+stride+MBSize+1])
		var p [MBSize]int
		switch {
		case fx == 0 && fy == 0:
			for x := range p {
				p[x] = int(r0[x])
			}
		case fy == 0:
			for x := range p {
				p[x] = (int(r0[x]) + int(r0[x+1]) + 1) / 2
			}
		case fx == 0:
			for x := range p {
				p[x] = (int(r0[x]) + int(r1[x]) + 1) / 2
			}
		default:
			for x := range p {
				p[x] = (int(r0[x]) + int(r0[x+1]) + int(r1[x]) + int(r1[x+1]) + 2) / 4
			}
		}
		for x := range p {
			d := int(c[x]) - p[x]
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad >= limit {
			return sad
		}
		co += stride
		ro += stride
	}
	return sad
}

// copyMB copies one macroblock (luma + both chroma tiles) from ref to dst.
func copyMB(dst, ref *Picture, mx, my int) {
	copyTile(dst.Y, ref.Y, mx, my, MBSize)
	copyTile(dst.Cb, ref.Cb, mx/2, my/2, MBSize/2)
	copyTile(dst.Cr, ref.Cr, mx/2, my/2, MBSize/2)
}

// copyTile copies an n×n tile at (x0, y0), row-wise via copy for interior
// tiles and through the clamping accessors at plane edges.
func copyTile(dst, ref *Plane, x0, y0, n int) {
	if x0 >= 0 && y0 >= 0 && x0+n <= dst.W && y0+n <= dst.H && dst.W == ref.W && dst.H == ref.H {
		for y := 0; y < n; y++ {
			o := (y0+y)*dst.W + x0
			copy(dst.Pix[o:o+n], ref.Pix[o:o+n])
		}
		return
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dst.Set(x0+x, y0+y, ref.At(x0+x, y0+y))
		}
	}
}

// codeResidualBlock transforms and writes one 8×8 motion-compensated
// residual (half-pel vector hvx/hvy), reconstructing into rec.
func codeResidualBlock(w *BitWriter, cur, ref, rec *Plane, bx, by, hvx, hvy, qscale int) {
	var res, coef Block
	var levels [BlockSize * BlockSize]int32
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			pred := halfPelSample(ref, 2*(bx+x)+hvx, 2*(by+y)+hvy)
			res[y*BlockSize+x] = float64(int(cur.At(bx+x, by+y)) - pred)
		}
	}
	FDCT(&res, &coef)
	quantize(&coef, &levels, false, qscale)
	writeBlock(w, &levels)
	dequantize(&levels, &coef, false, qscale)
	IDCT(&coef, &res)
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			pred := halfPelSample(ref, 2*(bx+x)+hvx, 2*(by+y)+hvy)
			rec.Set(bx+x, by+y, clampSample(float64(pred)+res[y*BlockSize+x]))
		}
	}
}

func decodeResidualBlock(r *BitReader, dst, ref *Plane, bx, by, hvx, hvy, qscale int) error {
	var res, coef Block
	var levels [BlockSize * BlockSize]int32
	if err := readBlock(r, &levels); err != nil {
		return err
	}
	dequantize(&levels, &coef, false, qscale)
	IDCT(&coef, &res)
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			pred := halfPelSample(ref, 2*(bx+x)+hvx, 2*(by+y)+hvy)
			dst.Set(bx+x, by+y, clampSample(float64(pred)+res[y*BlockSize+x]))
		}
	}
	return nil
}

// --- block entropy coding ---

// eobMarker terminates a block's (run, level) list; runs are at most 63 so
// the value is unambiguous.
const eobMarker = 64

// writeBlock writes the quantised levels of one block as zig-zag (run,
// level) pairs in Exp-Golomb code, terminated by an EOB marker.
func writeBlock(w *BitWriter, levels *[BlockSize * BlockSize]int32) {
	run := uint32(0)
	for _, idx := range ZigZag {
		v := levels[idx]
		if v == 0 {
			run++
			continue
		}
		w.WriteUE(run)
		w.WriteSE(v)
		run = 0
	}
	w.WriteUE(eobMarker)
}

// readBlock parses one block written by writeBlock.
func readBlock(r *BitReader, levels *[BlockSize * BlockSize]int32) error {
	for i := range levels {
		levels[i] = 0
	}
	pos := 0
	for {
		run, err := r.ReadUE()
		if err != nil {
			return err
		}
		if run == eobMarker {
			return nil
		}
		if run > eobMarker {
			return fmt.Errorf("%w: invalid run %d", ErrBitstream, run)
		}
		pos += int(run)
		if pos >= len(levels) {
			return fmt.Errorf("%w: run overflows block", ErrBitstream)
		}
		v, err := r.ReadSE()
		if err != nil {
			return err
		}
		if v == 0 {
			return fmt.Errorf("%w: zero level", ErrBitstream)
		}
		levels[ZigZag[pos]] = v
		pos++
	}
}

// --- helpers ---

func loadBlock(p *Plane, bx, by int, blk *Block, bias float64) {
	if bx >= 0 && by >= 0 && bx+BlockSize <= p.W && by+BlockSize <= p.H {
		for y := 0; y < BlockSize; y++ {
			o := (by+y)*p.W + bx
			r := (*[BlockSize]uint8)(p.Pix[o : o+BlockSize])
			b := blk.row(y)
			for x := 0; x < BlockSize; x++ {
				b[x] = float64(r[x]) - bias
			}
		}
		return
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			blk[y*BlockSize+x] = float64(p.At(bx+x, by+y)) - bias
		}
	}
}

func storeBlock(p *Plane, bx, by int, blk *Block, bias float64) {
	if bx >= 0 && by >= 0 && bx+BlockSize <= p.W && by+BlockSize <= p.H {
		for y := 0; y < BlockSize; y++ {
			o := (by+y)*p.W + bx
			r := (*[BlockSize]uint8)(p.Pix[o : o+BlockSize])
			b := blk.row(y)
			for x := 0; x < BlockSize; x++ {
				r[x] = clampSample(b[x] + bias)
			}
		}
		return
	}
	for y := 0; y < BlockSize; y++ {
		for x := 0; x < BlockSize; x++ {
			p.Set(bx+x, by+y, clampSample(blk[y*BlockSize+x]+bias))
		}
	}
}

func clampSample(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
