package codec

import "math"

// BlockSize is the transform block edge (8×8, as in MPEG-1/JPEG).
const BlockSize = 8

// Block is an 8×8 tile of coefficients or samples in row-major order.
type Block [BlockSize * BlockSize]float64

// dctBasis is the flattened DCT basis: dctBasis[u*8+x] = C(u)·cos((2x+1)uπ/16).
// dctBasisT is its transpose (dctBasisT[x*8+u] == dctBasis[u*8+x]) so both
// transform passes can walk unit-stride rows. Both hold the identical
// float64 values, so every dot product below repeats the original
// nested-array arithmetic bit for bit.
var dctBasis, dctBasisT [BlockSize * BlockSize]float64

func init() {
	for u := 0; u < BlockSize; u++ {
		c := math.Sqrt(2.0 / BlockSize)
		if u == 0 {
			c = math.Sqrt(1.0 / BlockSize)
		}
		for x := 0; x < BlockSize; x++ {
			b := c * math.Cos(float64(2*x+1)*float64(u)*math.Pi/(2*BlockSize))
			dctBasis[u*BlockSize+x] = b
			dctBasisT[x*BlockSize+u] = b
		}
	}
}

// dot8 is an 8-wide dot product with the same left-to-right accumulation
// order as the scalar loop it replaces; the fixed-size array arguments let
// the compiler drop every bounds check.
func dot8(a, b *[BlockSize]float64) float64 {
	return a[0]*b[0] + a[1]*b[1] + a[2]*b[2] + a[3]*b[3] +
		a[4]*b[4] + a[5]*b[5] + a[6]*b[6] + a[7]*b[7]
}

// row returns block row y as a fixed-size array pointer (bounds-check-free
// indexing for the 8-wide kernels).
func (b *Block) row(y int) *[BlockSize]float64 {
	return (*[BlockSize]float64)(b[y*BlockSize : y*BlockSize+BlockSize])
}

func basisRow(t *[BlockSize * BlockSize]float64, u int) *[BlockSize]float64 {
	return (*[BlockSize]float64)(t[u*BlockSize : u*BlockSize+BlockSize])
}

// FDCT computes the 2-D type-II DCT of src into dst (separable row/column
// passes). src and dst may alias.
func FDCT(src *Block, dst *Block) {
	var tmp Block
	// Rows: tmp[y][u] = Σ_x src[y][x]·basis[u][x].
	for y := 0; y < BlockSize; y++ {
		r := src.row(y)
		tr := tmp.row(y)
		for u := 0; u < BlockSize; u++ {
			tr[u] = dot8(r, basisRow(&dctBasis, u))
		}
	}
	// Columns: dst[v][x] = Σ_y tmp[y][x]·basis[v][y], computed 8 columns
	// at a time so the inner dimension is unit stride.
	t0, t1, t2, t3 := tmp.row(0), tmp.row(1), tmp.row(2), tmp.row(3)
	t4, t5, t6, t7 := tmp.row(4), tmp.row(5), tmp.row(6), tmp.row(7)
	for v := 0; v < BlockSize; v++ {
		bv := basisRow(&dctBasis, v)
		d := dst.row(v)
		for x := 0; x < BlockSize; x++ {
			d[x] = t0[x]*bv[0] + t1[x]*bv[1] + t2[x]*bv[2] + t3[x]*bv[3] +
				t4[x]*bv[4] + t5[x]*bv[5] + t6[x]*bv[6] + t7[x]*bv[7]
		}
	}
}

// IDCT computes the 2-D inverse DCT of src into dst. src and dst may alias.
func IDCT(src *Block, dst *Block) {
	var tmp Block
	// Columns: tmp[y][x] = Σ_v src[v][x]·basis[v][y] — the transposed
	// basis row basisT[y][v] makes the v sweep unit stride.
	s0, s1, s2, s3 := src.row(0), src.row(1), src.row(2), src.row(3)
	s4, s5, s6, s7 := src.row(4), src.row(5), src.row(6), src.row(7)
	for y := 0; y < BlockSize; y++ {
		bt := basisRow(&dctBasisT, y)
		ty := tmp.row(y)
		for x := 0; x < BlockSize; x++ {
			ty[x] = s0[x]*bt[0] + s1[x]*bt[1] + s2[x]*bt[2] + s3[x]*bt[3] +
				s4[x]*bt[4] + s5[x]*bt[5] + s6[x]*bt[6] + s7[x]*bt[7]
		}
	}
	// Rows: dst[y][x] = Σ_u tmp[y][u]·basis[u][x] = tmp_row · basisT[x].
	for y := 0; y < BlockSize; y++ {
		tr := tmp.row(y)
		dr := dst.row(y)
		for x := 0; x < BlockSize; x++ {
			dr[x] = dot8(tr, basisRow(&dctBasisT, x))
		}
	}
}

// idctFlat is every output of IDCT for a block whose only nonzero
// coefficient is the DC coefficient dc, up to the sign of a zero. Each
// pass multiplies by the DC basis value, which is the same for every
// sample; every other product it adds is ±0, which leaves a nonzero sum
// as it is.
func idctFlat(dc float64) float64 { return dc * dctBasis[0] * dctBasis[0] }

// ZigZag is the coefficient scan order mapping scan position to block
// index, identical to the JPEG/MPEG order.
var ZigZag = buildZigZag()

func buildZigZag() [BlockSize * BlockSize]int {
	var order [BlockSize * BlockSize]int
	x, y, dir := 0, 0, 1 // dir 1 = up-right, -1 = down-left
	for i := range order {
		order[i] = y*BlockSize + x
		if dir == 1 {
			switch {
			case x == BlockSize-1:
				y++
				dir = -1
			case y == 0:
				x++
				dir = -1
			default:
				x++
				y--
			}
		} else {
			switch {
			case y == BlockSize-1:
				x++
				dir = 1
			case x == 0:
				y++
				dir = 1
			default:
				x--
				y++
			}
		}
	}
	return order
}
