// Package codec implements the video compression substrate standing in for
// the Berkeley MPEG tools decoder used by the paper's player (§5): a
// block-transform codec with BT.601 4:2:0 chroma subsampling, 8×8 DCT,
// uniform quantisation, zig-zag run-length scanning with Exp-Golomb
// entropy coding, and motion-compensated P frames. It gives the client a
// realistic decode workload and a real bitstream for the annotation track
// to ride on; it is not bit-compatible with MPEG-1.
package codec

import (
	"fmt"

	"repro/internal/frame"
	"repro/internal/pixel"
)

// Plane is a single-component raster with its own dimensions (chroma
// planes are subsampled).
type Plane struct {
	W, H int
	Pix  []uint8
}

// NewPlane returns a zeroed plane.
func NewPlane(w, h int) *Plane {
	return &Plane{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the sample at (x, y), clamping coordinates to the plane edge
// (edge extension, as block and motion reads may poke outside).
func (p *Plane) At(x, y int) uint8 {
	if x < 0 {
		x = 0
	}
	if x >= p.W {
		x = p.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= p.H {
		y = p.H - 1
	}
	return p.Pix[y*p.W+x]
}

// Set stores v at (x, y); out-of-bounds writes are dropped.
func (p *Plane) Set(x, y int, v uint8) {
	if x < 0 || x >= p.W || y < 0 || y >= p.H {
		return
	}
	p.Pix[y*p.W+x] = v
}

// Picture is a YCbCr 4:2:0 image: full-resolution luma, half-resolution
// chroma in both dimensions.
type Picture struct {
	Y, Cb, Cr *Plane
}

// NewPicture allocates a picture for a w×h frame. Dimensions are rounded
// up internally to even values for subsampling.
func NewPicture(w, h int) *Picture {
	cw, ch := (w+1)/2, (h+1)/2
	return &Picture{Y: NewPlane(w, h), Cb: NewPlane(cw, ch), Cr: NewPlane(cw, ch)}
}

// FromFrame converts an RGB frame to a 4:2:0 picture. Chroma is averaged
// over each 2×2 luma quad.
func FromFrame(f *frame.Frame) *Picture {
	pic := NewPicture(f.W, f.H)
	fromFrameInto(f, pic)
	return pic
}

// fromFrameInto is FromFrame into a picture of f's size; it writes every
// sample, so pic may hold a previous frame. One pass over the 2×2 quads
// converts each pixel once, writing its luma and summing its chroma
// into the quad's average. Every quad holds at least its top-left pixel.
func fromFrameInto(f *frame.Frame, pic *Picture) {
	w := f.W
	for cy := 0; cy < pic.Cb.H; cy++ {
		for cx := 0; cx < pic.Cb.W; cx++ {
			var cb, cr, n int
			for y := 2 * cy; y < min(2*cy+2, f.H); y++ {
				for x := 2 * cx; x < min(2*cx+2, w); x++ {
					yc := pixel.ToYCbCr(f.Pix[y*w+x])
					pic.Y.Pix[y*w+x] = yc.Y
					cb += int(yc.Cb)
					cr += int(yc.Cr)
					n++
				}
			}
			o := cy*pic.Cb.W + cx
			pic.Cb.Pix[o] = uint8((cb + n/2) / n)
			pic.Cr.Pix[o] = uint8((cr + n/2) / n)
		}
	}
}

// ToFrame converts the picture back to an RGB frame of the given size
// (chroma is replicated over each 2×2 quad).
func (pic *Picture) ToFrame() *frame.Frame {
	f := frame.New(pic.Y.W, pic.Y.H)
	pic.toFrameInto(f)
	return f
}

// toFrameInto is ToFrame into f, which has the picture's size.
func (pic *Picture) toFrameInto(f *frame.Frame) {
	w, cw := f.W, pic.Cb.W
	for y := 0; y < f.H; y++ {
		out := f.Pix[y*w : (y+1)*w]
		luma := pic.Y.Pix[y*w : (y+1)*w]
		co := y / 2 * cw
		cb, cr := pic.Cb.Pix[co:co+cw], pic.Cr.Pix[co:co+cw]
		for x := range out {
			out[x] = pixel.ToRGB(pixel.YCbCr{Y: luma[x], Cb: cb[x/2], Cr: cr[x/2]})
		}
	}
}

// validateDims checks encoder/decoder dimension agreement.
func validateDims(w, h int) error {
	if w <= 0 || h <= 0 || w > 4096 || h > 4096 {
		return fmt.Errorf("codec: unsupported dimensions %dx%d", w, h)
	}
	return nil
}
