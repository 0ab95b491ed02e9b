// Package container defines the annotated video stream format: the
// bitstream a server stores and streams to clients, carrying the codec
// frames together with the annotation side-channel. The paper's scheme
// adds annotations "to the video stream at either the server or proxy
// node, with no changes for the client" (§3); here the annotation track
// travels in the stream header so it is available before any frame is
// decoded — the property that lets optimisations start early (§3).
//
// The format is stream-oriented: Writer/Reader operate on io.Writer /
// io.Reader so the same code serves files and TCP connections.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/annotation"
	"repro/internal/codec"
)

// Magic identifies the stream format ("annotated video stream, v2": v2
// generalised the single annotation blob into typed side-channel chunks).
var Magic = [4]byte{'A', 'V', 'S', '2'}

// ErrFormat is returned for malformed container data.
var ErrFormat = errors.New("container: malformed stream")

// maxPacket bounds a single frame packet (16 MiB), protecting readers from
// hostile length fields.
const maxPacket = 16 << 20

// Side-channel chunk kinds. Unknown kinds are preserved, so old readers
// skip new annotation types gracefully.
const (
	// ChunkLuminance carries the backlight annotation track (the paper's
	// contribution).
	ChunkLuminance uint8 = 1
	// ChunkDecodeCycles carries per-frame decode-complexity annotations
	// for frequency/voltage scaling (§3's "optimizations like
	// frequency/voltage scaling can be applied before decoding").
	ChunkDecodeCycles uint8 = 2
	// ChunkSceneBytes carries per-scene byte counts for network
	// receive scheduling (§3's "network packet optimizations").
	ChunkSceneBytes uint8 = 3
	// ChunkDeviceLevels carries ready-made backlight levels for the
	// client's device, computed by the server during negotiation
	// (§4.3: device-specific levels "can be computed by either the
	// server/proxy ... or by the client itself").
	ChunkDeviceLevels uint8 = 4
	// ChunkResumeOffset carries the global index of the stream's first
	// frame when a server honours a session-resume request: resumption
	// must start at an I-frame, so the server rounds the requested
	// start frame down and tells the client where the stream actually
	// begins (a big-endian uint32).
	ChunkResumeOffset uint8 = 5
)

// ControlFrameType marks an in-band control packet in the frame stream
// rather than video data. Control packets reuse the frame-packet
// framing ([type, qscale, length, payload]) so they flow through
// Writer/Reader unchanged, but are not frames: QScale selects the
// control kind and the payload is kind-specific. Adaptive sessions use
// them to mark mid-stream quality switches; fixed-quality streams never
// contain them, keeping their bytes identical to older servers.
const ControlFrameType uint8 = 0xFF

// EncodeResumeOffset renders a ChunkResumeOffset payload.
func EncodeResumeOffset(frame uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, frame)
}

// DecodeResumeOffset parses a ChunkResumeOffset payload.
func DecodeResumeOffset(data []byte) (uint32, error) {
	if len(data) != 4 {
		return 0, fmt.Errorf("%w: resume offset is %d bytes, want 4", ErrFormat, len(data))
	}
	return binary.BigEndian.Uint32(data), nil
}

// Header describes the stream.
type Header struct {
	W, H       int
	FPS        int
	FrameCount int // total frames that will follow; 0 if unknown (live)
	// Annotations is the backlight annotation track, or nil when the
	// stream is not annotated (the baseline configuration). It is
	// serialised as the ChunkLuminance side channel.
	Annotations *annotation.Track
	// AnnotationsErr records a ChunkLuminance payload that failed to
	// decode. A damaged annotation track must not kill playback — the
	// paper's scheme adds annotations "with no changes for the client",
	// so readers degrade to full-backlight passthrough (the player) or
	// retry the fetch (the stream client) instead of erroring out.
	// Never set by Writer; only populated by NewReader.
	AnnotationsErr error
	// AnnotationsLen is the ChunkLuminance payload length as read from
	// the wire, so a reader counts annotation bytes without encoding the
	// track again. Only populated by NewReader.
	AnnotationsLen int
	// Extra holds additional side-channel chunks by kind (decode cycles,
	// scene bytes, future types). ChunkLuminance must not appear here.
	Extra map[uint8][]byte
}

// Writer serialises a stream.
type Writer struct {
	w io.Writer
}

// NewWriter writes the header and returns a Writer for the frames.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.W <= 0 || h.H <= 0 || h.W > 0xFFFF || h.H > 0xFFFF {
		return nil, fmt.Errorf("container: invalid dimensions %dx%d", h.W, h.H)
	}
	if h.FPS <= 0 || h.FPS > 255 {
		return nil, fmt.Errorf("container: invalid fps %d", h.FPS)
	}
	if _, ok := h.Extra[ChunkLuminance]; ok {
		return nil, fmt.Errorf("container: ChunkLuminance belongs in Header.Annotations")
	}
	var buf []byte
	buf = append(buf, Magic[:]...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.W))
	buf = binary.BigEndian.AppendUint16(buf, uint16(h.H))
	buf = append(buf, uint8(h.FPS))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.FrameCount))

	type chunk struct {
		kind uint8
		data []byte
	}
	var chunks []chunk
	if h.Annotations != nil {
		chunks = append(chunks, chunk{ChunkLuminance, h.Annotations.Encode()})
	}
	// Deterministic chunk order: ascending kind.
	for kind := 0; kind <= 255; kind++ {
		if data, ok := h.Extra[uint8(kind)]; ok {
			chunks = append(chunks, chunk{uint8(kind), data})
		}
	}
	if len(chunks) > 255 {
		return nil, fmt.Errorf("container: too many side-channel chunks")
	}
	buf = append(buf, uint8(len(chunks)))
	for _, c := range chunks {
		if len(c.data) > maxPacket {
			return nil, fmt.Errorf("container: chunk %d is %dB, exceeds limit", c.kind, len(c.data))
		}
		buf = append(buf, c.kind)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(c.data)))
		buf = append(buf, c.data...)
	}
	if _, err := w.Write(buf); err != nil {
		return nil, fmt.Errorf("container: writing header: %w", err)
	}
	return &Writer{w: w}, nil
}

// FramePacketOverhead is the fixed framing cost of one frame packet:
// [type u8, qscale u8, payload length u32 BE] precede the payload.
const FramePacketOverhead = 6

// AppendFramePacket appends the wire framing of one encoded frame —
// exactly the bytes WriteFrame would emit — to dst and returns the
// extended slice. It lets callers pre-assemble a contiguous packet run
// (a clip's "wire form") once and later stream any span of it with
// WritePackets, guaranteeing by construction that the pre-assembled
// bytes cannot drift from the per-frame writer.
func AppendFramePacket(dst []byte, ef *codec.EncodedFrame) ([]byte, error) {
	if len(ef.Data) > maxPacket {
		return nil, fmt.Errorf("container: frame packet %dB exceeds limit", len(ef.Data))
	}
	dst = append(dst, uint8(ef.Type), uint8(ef.QScale))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ef.Data)))
	return append(dst, ef.Data...), nil
}

// WriteFrame appends one encoded frame packet.
func (w *Writer) WriteFrame(ef *codec.EncodedFrame) error {
	if len(ef.Data) > maxPacket {
		return fmt.Errorf("container: frame packet %dB exceeds limit", len(ef.Data))
	}
	var hdr [6]byte
	hdr[0] = uint8(ef.Type)
	hdr[1] = uint8(ef.QScale)
	binary.BigEndian.PutUint32(hdr[2:], uint32(len(ef.Data)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("container: writing frame header: %w", err)
	}
	if _, err := w.w.Write(ef.Data); err != nil {
		return fmt.Errorf("container: writing frame payload: %w", err)
	}
	return nil
}

// WritePackets writes pre-framed packet bytes (AppendFramePacket
// framing) straight through. Callers may split one packet run across
// several calls, for write-deadline or cancellation granularity; the
// byte stream is identical either way.
func (w *Writer) WritePackets(p []byte) error {
	if len(p) > 0 {
		if _, err := w.w.Write(p); err != nil {
			return fmt.Errorf("container: writing frame packets: %w", err)
		}
	}
	return nil
}

// Reader parses a stream.
type Reader struct {
	r      io.Reader
	header Header
}

// NewReader reads and validates the header.
func NewReader(r io.Reader) (*Reader, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrFormat, err)
	}
	if m != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, m)
	}
	var fixed [10]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %w", ErrFormat, err)
	}
	h := Header{
		W:          int(binary.BigEndian.Uint16(fixed[0:2])),
		H:          int(binary.BigEndian.Uint16(fixed[2:4])),
		FPS:        int(fixed[4]),
		FrameCount: int(binary.BigEndian.Uint32(fixed[5:9])),
	}
	if h.W <= 0 || h.H <= 0 || h.FPS <= 0 {
		return nil, fmt.Errorf("%w: invalid header %dx%d@%d", ErrFormat, h.W, h.H, h.FPS)
	}
	chunkCount := int(fixed[9])
	for i := 0; i < chunkCount; i++ {
		var ch [5]byte
		if _, err := io.ReadFull(r, ch[:]); err != nil {
			return nil, fmt.Errorf("%w: short chunk header: %w", ErrFormat, err)
		}
		kind := ch[0]
		n := binary.BigEndian.Uint32(ch[1:])
		if n > maxPacket {
			return nil, fmt.Errorf("%w: chunk %d is %dB, exceeds limit", ErrFormat, kind, n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("%w: short chunk payload: %w", ErrFormat, err)
		}
		if kind == ChunkLuminance {
			h.AnnotationsLen = len(data)
			tr, err := annotation.Decode(data)
			if err != nil {
				// Tolerate a corrupt annotation track: record the
				// damage and keep parsing so callers can degrade
				// gracefully instead of dying.
				h.AnnotationsErr = fmt.Errorf("%w: %v", ErrFormat, err)
				continue
			}
			h.Annotations = tr
			continue
		}
		if h.Extra == nil {
			h.Extra = map[uint8][]byte{}
		}
		h.Extra[kind] = data
	}
	return &Reader{r: r, header: h}, nil
}

// Header returns the parsed stream header.
func (r *Reader) Header() Header { return r.header }

// ReadFrame returns the next frame packet, or io.EOF cleanly at stream end.
func (r *Reader) ReadFrame() (*codec.EncodedFrame, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: short frame header: %w", ErrFormat, err)
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > maxPacket {
		return nil, fmt.Errorf("%w: frame packet %dB exceeds limit", ErrFormat, n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return nil, fmt.Errorf("%w: short frame payload: %w", ErrFormat, err)
	}
	return &codec.EncodedFrame{
		Type:   codec.FrameType(hdr[0]),
		QScale: int(hdr[1]),
		Data:   data,
	}, nil
}
