// Package annotation defines the software annotations of the paper's title:
// per-scene luminance summaries computed offline at the server or proxy and
// carried with the video stream, so that the client's only runtime work is
// "a simple multiplication, followed by a table look-up" and a periodic
// backlight adjustment (§4.3).
//
// A track stores, for every scene, the scene length and the scene's target
// luminance at each offered quality level (the paper's server offers the
// same five quality levels to all PDA clients; only the final backlight
// levels are device specific). Tracks are serialised with run-length
// encoding: "the annotations are RLE compressed, so the overhead is
// minimal, in the order of hundreds of bytes" for multi-megabyte clips
// (§4.3).
package annotation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/compensate"
	"repro/internal/display"
	"repro/internal/scene"
)

// Record is the annotation for one scene.
type Record struct {
	// Frames is the scene length in frames; scene start positions are
	// the running sum of preceding lengths.
	Frames int
	// Targets[q] is the scene's required luminance at quality level q,
	// quantised to 0..255 (normalised luminance × 255).
	Targets []uint8
}

// Track is the annotation side-channel for one clip.
type Track struct {
	// FPS is the playback rate the frame counts refer to.
	FPS int
	// Quality lists the clipping budgets offered (fractions, ascending).
	Quality []float64
	// Records holds one entry per scene, in playback order.
	Records []Record
}

// FromScenes profiles detected scenes into an annotation track using the
// paper's quality levels by default (pass nil for quality). The clipping
// budget is applied to each scene's aggregate histogram, so individual
// frames within a scene may exceed it; use FromStats when the budget must
// hold frame by frame.
func FromScenes(fps int, scenes []scene.Scene, quality []float64) *Track {
	if quality == nil {
		quality = compensate.QualityLevels
	}
	t := &Track{FPS: fps, Quality: quality}
	for _, s := range scenes {
		r := Record{Frames: s.Len(), Targets: make([]uint8, len(quality))}
		for qi, q := range quality {
			target := compensate.SceneTarget(s.Hist, q)
			// Quantise upward: rounding a target down would clip more
			// pixels than the budget allows; a level of extra headroom
			// costs almost nothing.
			r.Targets[qi] = uint8(math.Ceil(target * 255))
		}
		t.Records = append(t.Records, r)
	}
	return t
}

// FromStats builds an annotation track whose scene targets honour the
// clipping budget on every individual frame: a scene's target at quality q
// is the maximum over its frames of the frame's own clip level. This is
// the strict reading of the paper's quality guarantee ("the quality
// determines the maximum percentage of pixels that can be clipped") and is
// what the server-side analysis uses. stats must cover exactly the frames
// the scenes partition.
func FromStats(fps int, scenes []scene.Scene, stats []scene.FrameStats, quality []float64) *Track {
	return FromStatsParallel(fps, scenes, stats, quality, 1)
}

// FromStatsParallel is FromStats with the per-quality target columns
// computed by up to workers goroutines — the clip-level computation is
// independent per quality level, so the offered levels fan out across
// cores. Output is identical to FromStats for any worker count: each
// column is a deterministic function of (scenes, stats, quality[qi]).
func FromStatsParallel(fps int, scenes []scene.Scene, stats []scene.FrameStats, quality []float64, workers int) *Track {
	if quality == nil {
		quality = compensate.QualityLevels
	}
	t := &Track{FPS: fps, Quality: quality}
	t.Records = make([]Record, len(scenes))
	for i, s := range scenes {
		t.Records[i] = Record{Frames: s.Len(), Targets: make([]uint8, len(quality))}
	}
	column := func(qi int) {
		q := quality[qi]
		for ri, s := range scenes {
			var target float64
			for _, st := range stats[s.Start:s.End] {
				ft := s.MaxLuma / 255 // fallback when a frame has no histogram
				if st.Hist != nil && st.Hist.Total > 0 {
					ft = compensate.SceneTarget(st.Hist, q)
				}
				if ft > target {
					target = ft
				}
			}
			t.Records[ri].Targets[qi] = uint8(math.Ceil(target * 255))
		}
	}
	if workers <= 1 || len(quality) <= 1 {
		for qi := range quality {
			column(qi)
		}
		return t
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for qi := range quality {
		wg.Add(1)
		sem <- struct{}{}
		go func(qi int) {
			defer wg.Done()
			column(qi)
			<-sem
		}(qi)
	}
	wg.Wait()
	return t
}

// TotalFrames returns the number of frames covered by the track.
func (t *Track) TotalFrames() int {
	n := 0
	for _, r := range t.Records {
		n += r.Frames
	}
	return n
}

// QualityIndex returns the index of the closest offered quality level at
// or below the requested budget (so a client never exceeds the quality
// degradation it asked for).
func (t *Track) QualityIndex(budget float64) int {
	best := 0
	for i, q := range t.Quality {
		if q <= budget+1e-12 {
			best = i
		}
	}
	return best
}

// TargetAt returns the annotated target luminance (0..1) for the given
// frame at quality index qi. It is O(#scenes); playback uses Cursor.
func (t *Track) TargetAt(frameIdx, qi int) float64 {
	pos := 0
	for _, r := range t.Records {
		pos += r.Frames
		if frameIdx < pos {
			return float64(r.Targets[qi]) / 255
		}
	}
	if len(t.Records) == 0 {
		return 1
	}
	last := t.Records[len(t.Records)-1]
	return float64(last.Targets[qi]) / 255
}

// Cursor walks a track in playback order with O(1) per-frame cost — the
// client-side pattern: each frame, ask for the target; it changes only at
// scene boundaries.
type Cursor struct {
	track   *Track
	qi      int
	rec     int
	remain  int
	current float64
}

// NewCursor starts a cursor at frame 0 for quality index qi.
func (t *Track) NewCursor(qi int) *Cursor {
	if qi < 0 || qi >= len(t.Quality) {
		panic(fmt.Sprintf("annotation: quality index %d out of range", qi))
	}
	c := &Cursor{track: t, qi: qi, rec: -1, current: 1}
	c.advance()
	return c
}

func (c *Cursor) advance() {
	c.rec++
	if c.rec < len(c.track.Records) {
		r := c.track.Records[c.rec]
		c.remain = r.Frames
		c.current = float64(r.Targets[c.qi]) / 255
	} else {
		c.remain = math.MaxInt
	}
}

// Next returns the target luminance for the next frame and whether that
// frame starts a new scene (i.e. the backlight should be re-set).
func (c *Cursor) Next() (target float64, sceneStart bool) {
	start := false
	for c.remain == 0 {
		c.advance()
		if c.rec < len(c.track.Records) {
			start = true
		}
	}
	if c.rec == 0 && len(c.track.Records) > 0 && c.track.Records[0].Frames == c.remain {
		start = true // very first frame
	}
	c.remain--
	return c.current, start
}

// LevelsFor resolves the device-specific backlight levels for every record
// and quality level — the computation the server performs during the
// negotiation phase when the client sends its display characteristics
// (or the client performs itself with its own LUT).
func (t *Track) LevelsFor(dev *display.Profile) [][]int {
	dev.BuildInverse()
	levels := make([][]int, len(t.Records))
	for i, r := range t.Records {
		row := make([]int, len(r.Targets))
		for q, tgt := range r.Targets {
			row[q] = dev.LevelFor(float64(tgt) / 255)
		}
		levels[i] = row
	}
	return levels
}

// Binary format:
//
//	magic "ANB1"
//	u8    quality-level count Q
//	Q×u8  quality budgets in 1/255 fraction units
//	u16   fps
//	u32   record count N
//	N×uvarint  scene lengths (frames)
//	Q×RLE      per-quality target byte streams, each RLE framed as
//	           u32 pair-count, then (uvarint run length, u8 value) pairs
//
// Targets are RLE-compressed per quality column because consecutive scenes
// frequently share a quantised target, and columns are more uniform than
// interleaved rows.

var magic = [4]byte{'A', 'N', 'B', '1'}

// ErrCorrupt is returned when decoding malformed annotation bytes.
var ErrCorrupt = errors.New("annotation: corrupt track encoding")

// Encode serialises the track.
func (t *Track) Encode() []byte {
	var buf []byte
	buf = append(buf, magic[:]...)
	buf = append(buf, uint8(len(t.Quality)))
	for _, q := range t.Quality {
		buf = append(buf, uint8(math.Round(q*255)))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(t.FPS))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(t.Records)))
	for _, r := range t.Records {
		buf = binary.AppendUvarint(buf, uint64(r.Frames))
	}
	for qi := range t.Quality {
		col := make([]uint8, len(t.Records))
		for i, r := range t.Records {
			col[i] = r.Targets[qi]
		}
		buf = appendRLE(buf, col)
	}
	return buf
}

// appendRLE frames one RLE-compressed byte column.
func appendRLE(buf []byte, col []uint8) []byte {
	type run struct {
		n int
		v uint8
	}
	var runs []run
	for _, v := range col {
		if len(runs) > 0 && runs[len(runs)-1].v == v {
			runs[len(runs)-1].n++
		} else {
			runs = append(runs, run{1, v})
		}
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(runs)))
	for _, r := range runs {
		buf = binary.AppendUvarint(buf, uint64(r.n))
		buf = append(buf, r.v)
	}
	return buf
}

// Decode parses a track produced by Encode.
func Decode(data []byte) (*Track, error) {
	p := &parser{data: data}
	var m [4]byte
	copy(m[:], p.bytes(4))
	if p.err != nil || m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	qn := int(p.u8())
	if qn == 0 {
		// A track without quality levels has no target to play at.
		return nil, fmt.Errorf("%w: no quality levels", ErrCorrupt)
	}
	t := &Track{Quality: make([]float64, qn)}
	for i := range t.Quality {
		t.Quality[i] = float64(p.u8()) / 255
	}
	t.FPS = int(p.u16())
	n := int(p.u32())
	if p.err != nil {
		return nil, p.err
	}
	if n > len(data) { // a record costs >=1 byte; cheap sanity bound
		return nil, fmt.Errorf("%w: implausible record count %d", ErrCorrupt, n)
	}
	t.Records = make([]Record, n)
	for i := range t.Records {
		t.Records[i].Frames = int(p.uvarint())
		t.Records[i].Targets = make([]uint8, qn)
	}
	for qi := 0; qi < qn; qi++ {
		col, err := p.rleColumn(n)
		if err != nil {
			return nil, err
		}
		for i, v := range col {
			t.Records[i].Targets[qi] = v
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	return t, nil
}

type parser struct {
	data []byte
	pos  int
	err  error
}

func (p *parser) bytes(n int) []byte {
	if p.err != nil || p.pos+n > len(p.data) {
		p.fail()
		return make([]byte, n)
	}
	b := p.data[p.pos : p.pos+n]
	p.pos += n
	return b
}

func (p *parser) fail() {
	if p.err == nil {
		p.err = ErrCorrupt
	}
}

func (p *parser) u8() uint8   { return p.bytes(1)[0] }
func (p *parser) u16() uint16 { return binary.BigEndian.Uint16(p.bytes(2)) }
func (p *parser) u32() uint32 { return binary.BigEndian.Uint32(p.bytes(4)) }

func (p *parser) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.data[p.pos:])
	if n <= 0 {
		p.fail()
		return 0
	}
	p.pos += n
	return v
}

func (p *parser) rleColumn(want int) ([]uint8, error) {
	pairs := int(p.u32())
	col := make([]uint8, 0, want)
	for i := 0; i < pairs; i++ {
		n := int(p.uvarint())
		v := p.u8()
		if p.err != nil {
			return nil, p.err
		}
		// Compare as "n > want-len(col)", never "len(col)+n > want":
		// a hostile run length near MaxInt64 makes the sum wrap
		// negative, sneaking past the bound and over-allocating.
		if n <= 0 || n > want-len(col) {
			return nil, fmt.Errorf("%w: RLE run overflows column", ErrCorrupt)
		}
		for j := 0; j < n; j++ {
			col = append(col, v)
		}
	}
	if len(col) != want {
		return nil, fmt.Errorf("%w: RLE column short (%d of %d)", ErrCorrupt, len(col), want)
	}
	return col, nil
}

// Size returns the encoded size in bytes — the annotation overhead the
// paper reports as "hundreds of bytes" per clip.
func (t *Track) Size() int { return len(t.Encode()) }

// EncodeLevels serialises a device-specific backlight level table as
// produced by LevelsFor: u32 record count, u8 quality count, then one
// byte per (record, quality) level. This is the payload of the
// container's ChunkDeviceLevels side channel when the server resolves
// levels for the client during negotiation.
func EncodeLevels(levels [][]int) ([]byte, error) {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(levels)))
	qn := 0
	if len(levels) > 0 {
		qn = len(levels[0])
	}
	if qn > 255 {
		return nil, fmt.Errorf("annotation: %d quality levels exceed a byte", qn)
	}
	buf = append(buf, uint8(qn))
	for i, row := range levels {
		if len(row) != qn {
			return nil, fmt.Errorf("annotation: level row %d has %d entries, want %d", i, len(row), qn)
		}
		for _, l := range row {
			if l < 0 || l > 255 {
				return nil, fmt.Errorf("annotation: level %d out of range", l)
			}
			buf = append(buf, uint8(l))
		}
	}
	return buf, nil
}

// DecodeLevels parses an EncodeLevels payload.
func DecodeLevels(data []byte) ([][]int, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("annotation: short level table")
	}
	n := int(binary.BigEndian.Uint32(data))
	qn := int(data[4])
	need := 5 + n*qn
	if n < 0 || qn == 0 && n > 0 || need != len(data) {
		return nil, fmt.Errorf("annotation: level table size mismatch (%d records × %d levels, %dB)", n, qn, len(data))
	}
	out := make([][]int, n)
	pos := 5
	for i := range out {
		row := make([]int, qn)
		for q := range row {
			row[q] = int(data[pos])
			pos++
		}
		out[i] = row
	}
	return out, nil
}
